/**
 * @file
 * Workload inputs, generated in-process from the command-line seed.
 *
 * Every workload starts from a synthetic ce11-cb4 species pair. The
 * ancestral genome (its bases, exon grid, island mosaic and repeat
 * families) is fixed per genome size by a layout seed; the --seed drives
 * both descendant branches, i.e. every substitution and indel that makes
 * the target and query what they are, plus the noise shuffle. Drawing
 * the ancestor from --seed as well makes the planted repeat-family sizes
 * vary so much between seeds that matched bp spreads by a third
 * (interquartile range over ten seeds at 240 kb), which would drown any
 * real sensitivity change; with a fixed layout it spreads by a few
 * percent.
 */
#ifndef WGABENCH_INPUTS_H
#define WGABENCH_INPUTS_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "eval/exon_eval.h"
#include "seq/shuffle.h"
#include "synth/markov_source.h"
#include "synth/species.h"
#include "util/logging.h"
#include "util/rng.h"

namespace wgabench {

using darwin::Rng;
namespace seq = darwin::seq;
namespace synth = darwin::synth;

/** Layout seed of the ancestral genome; part of the workload definition. */
inline constexpr std::uint64_t kLayoutSeed = 20190216;

/** The ce11-cb4 pair with two chromosomes of `chromosome_length` bp. */
inline synth::SpeciesPair
make_pair(std::size_t chromosome_length, std::uint64_t seed)
{
    const synth::SpeciesPairSpec spec = synth::find_species_pair("ce11-cb4");
    synth::AncestorConfig config;
    config.num_chromosomes = 2;
    config.chromosome_length = chromosome_length;
    // One planted exon per 2.5 kb, as `darwin-wga synthesize` plants them.
    config.exons_per_chromosome = chromosome_length / 2500;
    config.island_sub_factor_min = spec.island_sub_factor_min;
    config.island_sub_factor_max = spec.island_sub_factor_max;
    config.island_indel_factor_min = spec.island_indel_factor_min;
    config.island_indel_factor_max = spec.island_indel_factor_max;
    Rng layout_rng(kLayoutSeed);
    const synth::AnnotatedGenome ancestor =
        synth::make_ancestor(spec.pair_name + "_anc", config,
                             synth::MarkovSource::genome_like(), layout_rng);

    // Branch model of synth::make_species_pair.
    synth::BranchParams branch;
    branch.substitutions_per_site = spec.distance / 2.0;
    branch.indel_rate_per_site = spec.indel_rate_per_site / 2.0;
    branch.long_indel_fraction = 0.04;

    synth::SpeciesPair pair;
    pair.spec = spec;
    Rng rng(seed);
    Rng target_rng = rng.fork();
    Rng query_rng = rng.fork();
    pair.target = synth::evolve_genome(ancestor, spec.target_name, branch,
                                       target_rng, &pair.target_branch);
    pair.query = synth::evolve_genome(ancestor, spec.query_name, branch,
                                      query_rng, &pair.query_branch);
    return pair;
}

/**
 * The noise query: every base outside the kept exons (every
 * `keep_every`-th planted exon) goes through the dinucleotide-preserving
 * shuffle (seq::dinucleotide_shuffle, the paper's FPR null model),
 * segment by segment; the kept exons stay in place. Seed hits in the
 * shuffled background all die in the filter, while the kept exons make
 * matched bp and exon recall measurable (never 0) on this workload at a
 * small extension cost.
 */
inline synth::AnnotatedGenome
shuffle_outside_exons(const synth::AnnotatedGenome& genome,
                      std::size_t keep_every, Rng& rng)
{
    synth::AnnotatedGenome out;
    out.genome.set_name(genome.genome.name() + "_shuffled");
    for (std::size_t c = 0; c < genome.genome.num_chromosomes(); ++c) {
        const seq::Sequence& chrom = genome.genome.chromosome(c);
        std::vector<synth::Annotation> exons;
        std::size_t seen = 0;
        for (const auto& ann : genome.annotations[c])
            if (ann.kind == synth::AnnotationKind::Exon &&
                seen++ % keep_every == 0)
                exons.push_back(ann);
        std::vector<std::uint8_t> codes;
        codes.reserve(chrom.size());
        const auto append = [&codes](const seq::Sequence& part) {
            codes.insert(codes.end(), part.codes().begin(),
                         part.codes().end());
        };
        std::uint64_t pos = 0;
        for (const auto& exon : exons) {
            append(seq::dinucleotide_shuffle(
                chrom.subsequence(pos, exon.interval.start - pos), rng));
            append(chrom.subsequence(exon.interval.start,
                                     exon.interval.length()));
            pos = exon.interval.end;
        }
        append(seq::dinucleotide_shuffle(
            chrom.subsequence(pos, chrom.size() - pos), rng));
        darwin::require(codes.size() == chrom.size(),
                        "shuffle_outside_exons: length changed");
        out.genome.add_chromosome(
            seq::Sequence(chrom.name(), std::move(codes)));
        out.annotations.push_back(std::move(exons));
    }
    return out;
}

/** One serve query: a window of the query genome around a planted exon. */
struct Window {
    seq::Genome genome;  ///< one chromosome, the window bases
    /** Exons lying wholly inside the window, query side in window
     *  coordinates, target side in the target's flat coordinates. */
    std::vector<darwin::eval::FlatExon> exons;
};

/**
 * Up to `count` windows of `length` bp, centred on query exons spread
 * evenly over the genome (every k-th exon in genome order). Which exons
 * is fixed by the layout, like the ancestor; the window bases follow the
 * seed through the query's mutations.
 */
inline std::vector<Window>
make_windows(const synth::AnnotatedGenome& target,
             const synth::AnnotatedGenome& query, std::size_t count,
             std::size_t length)
{
    const std::vector<darwin::eval::FlatExon> flat =
        darwin::eval::flatten_exons(target, query);
    struct Anchor {
        std::size_t chromosome;
        std::uint64_t centre;
    };
    std::vector<Anchor> anchors;
    for (std::size_t c = 0; c < query.annotations.size(); ++c)
        for (const auto& ann : query.annotations[c])
            if (ann.kind == synth::AnnotationKind::Exon)
                anchors.push_back(
                    {c, (ann.interval.start + ann.interval.end) / 2});
    const std::size_t step = std::max<std::size_t>(1, anchors.size() / count);
    std::vector<Anchor> chosen;
    for (std::size_t i = 0; i < anchors.size() && chosen.size() < count;
         i += step)
        chosen.push_back(anchors[i]);

    std::vector<Window> windows;
    for (const Anchor& anchor : chosen) {
        const std::size_t chrom_len =
            query.genome.chromosome_length(anchor.chromosome);
        const std::size_t len = std::min(length, chrom_len);
        const std::uint64_t start = std::min<std::uint64_t>(
            anchor.centre > len / 2 ? anchor.centre - len / 2 : 0,
            chrom_len - len);
        Window window;
        window.genome.set_name("window");
        window.genome.add_chromosome(
            query.genome.chromosome(anchor.chromosome)
                .subsequence(start, len,
                             "win" + std::to_string(windows.size())));
        const std::uint64_t flat_start =
            query.genome.flat_offset(anchor.chromosome) + start;
        for (const auto& exon : flat) {
            if (exon.query.start < flat_start ||
                exon.query.end > flat_start + len)
                continue;
            darwin::eval::FlatExon local = exon;
            local.query = {exon.query.start - flat_start,
                           exon.query.end - flat_start};
            window.exons.push_back(local);
        }
        windows.push_back(std::move(window));
    }
    return windows;
}

}  // namespace wgabench

#endif  // WGABENCH_INPUTS_H

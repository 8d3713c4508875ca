/**
 * @file
 * The traced run: the pipeline composed from its public stage calls,
 * with a span recorded around each call.
 *
 * Spans (name, start, end, parent) stay in memory and are written out
 * once, when the benchmark exits. A layer's self time is its spans'
 * duration minus the part covered by their child spans. The composition
 * mirrors WgaPipeline::run / run_with_index stage for stage, so its MAF
 * must be byte-identical to the untraced run's; main.cpp checks that.
 */
#ifndef WGABENCH_TRACED_H
#define WGABENCH_TRACED_H

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "align/gactx.h"
#include "chain/chainer.h"
#include "seed/dsoft.h"
#include "seed/seed_index.h"
#include "seq/fasta.h"
#include "util/thread_pool.h"
#include "wga/extend_stage.h"
#include "wga/filter_stage.h"
#include "wga/maf.h"
#include "wga/pipeline.h"

namespace wgabench {

namespace align = darwin::align;
namespace seed = darwin::seed;
namespace wga = darwin::wga;
using darwin::ThreadPool;

using Clock = std::chrono::steady_clock;

inline double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** User + system CPU seconds of the whole process so far. */
inline double
process_cpu_seconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/** In-memory span store; single-threaded (the traced passes run on the
 *  benchmark's main thread). */
class SpanRecorder {
  public:
    struct Span {
        std::string name;
        double start = 0.0;  ///< seconds since the recorder was created
        double end = 0.0;
        int parent = -1;
    };

    int
    open(const std::string& name, int parent)
    {
        spans_.push_back({name, seconds_since(origin_), 0.0, parent});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int id) { spans_[id].end = seconds_since(origin_); }

    /** Duration of span `id` minus the durations of its children (the
     *  children of one span never overlap: they run one after another). */
    double
    self_seconds(int id) const
    {
        double self = spans_[id].end - spans_[id].start;
        for (const Span& span : spans_)
            if (span.parent == id)
                self -= span.end - span.start;
        return self;
    }

    /** Write every span as a JSON array (seconds since recorder start). */
    void
    write_json(const std::string& path) const
    {
        std::ofstream out(path);
        out << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << "  {\"id\": " << i << ", \"name\": \"" << s.name
                << "\", \"start\": " << s.start << ", \"end\": " << s.end
                << ", \"parent\": " << s.parent << "}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]\n";
    }

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** Wall and CPU seconds a layer spent in one traced pass. */
struct LayerTime {
    double self_s = 0.0;
    double cpu_s = 0.0;
};

/** Everything one traced pass measured and produced. */
struct TracedPass {
    std::string maf;  ///< the MAF bytes written
    wga::WgaResult result;
    /** By layer: seq, seed, filter, extend, chain, maf. */
    std::map<std::string, LayerTime> layers;
    double wall_s = 0.0;  ///< the root span
    double cpu_s = 0.0;
    std::size_t threads = 1;  ///< workers the stage calls could use
};

/**
 * Ingest -> seed -> filter -> extend -> chain -> MAF from the stage
 * calls. `index` is a loaded persisted index (the serve path) or null to
 * build one from the target (in-RAM path). Strands run one after the
 * other, forward first, as WgaPipeline orders its output.
 */
inline TracedPass
traced_align(SpanRecorder& rec, const std::string& target_fasta,
             const std::string& query_fasta, const seed::SeedIndex* index,
             bool both_strands, ThreadPool* pool, const std::string& maf_path)
{
    TracedPass pass;
    pass.threads = pool != nullptr ? pool->size() : 1;
    const Clock::time_point start = Clock::now();
    const double cpu_start = process_cpu_seconds();
    const int root = rec.open("op", -1);

    // One span per stage call; its self time and CPU land in `layer`.
    const auto stage = [&](const std::string& layer, const auto& body) {
        const double cpu0 = process_cpu_seconds();
        const int id = rec.open(layer, root);
        body();
        rec.close(id);
        LayerTime& t = pass.layers[layer];
        t.self_s += rec.self_seconds(id);
        t.cpu_s += process_cpu_seconds() - cpu0;
    };

    wga::WgaParams params = wga::WgaParams::darwin_defaults();
    params.align_both_strands = both_strands;
    darwin::seq::Genome target;
    darwin::seq::Genome query;
    stage("seq", [&] {
        target = darwin::seq::read_genome(target_fasta);
        query = darwin::seq::read_genome(query_fasta);
    });
    const darwin::seq::Sequence& target_flat = target.flattened();
    const std::span<const std::uint8_t> target_span{
        target_flat.codes().data(), target_flat.size()};

    std::unique_ptr<seed::SeedIndex> built;
    if (index == nullptr) {
        stage("seed", [&] {
            built = std::make_unique<seed::SeedIndex>(
                target_flat, seed::SeedPattern(params.seed_pattern));
        });
        index = built.get();
    }

    wga::WgaResult& result = pass.result;
    darwin::seq::Sequence query_rc;
    for (int strand = 0; strand < (both_strands ? 2 : 1); ++strand) {
        if (strand == 1)
            query_rc = query.flattened().reverse_complement();
        const darwin::seq::Sequence& q =
            strand == 0 ? query.flattened() : query_rc;
        const std::span<const std::uint8_t> query_span{q.codes().data(),
                                                       q.size()};
        wga::PipelineStats strand_stats;
        std::vector<seed::SeedHit> hits;
        stage("seed", [&] {
            const seed::DsoftSeeder seeder(*index, params.dsoft);
            hits = seeder.seed_all(q, &strand_stats.seeding, pool);
        });
        std::vector<wga::FilterCandidate> candidates;
        stage("filter", [&] {
            const wga::FilterStage filter(params, target_span, query_span);
            candidates =
                filter.filter_all(hits, &strand_stats.filter, pool);
        });
        std::vector<align::Alignment> alignments;
        stage("extend", [&] {
            const align::GactXTileAligner aligner(params.gactx);
            wga::ExtendStage extend(params, target_span, query_span);
            alignments = extend.extend_all(candidates, aligner,
                                           &strand_stats.extend, pool);
        });
        result.stats.merge(strand_stats);
        for (auto& alignment : alignments) {
            alignment.query_strand =
                strand == 0 ? align::Strand::Forward : align::Strand::Reverse;
            result.alignments.push_back(std::move(alignment));
        }
    }
    stage("chain", [&] {
        result.chains = darwin::chain::chain_alignments(result.alignments);
    });
    stage("maf", [&] {
        std::ostringstream out;
        wga::write_maf(out, result.alignments, target, query);
        pass.maf = out.str();
        std::ofstream file(maf_path, std::ios::binary);
        file << pass.maf;
    });
    rec.close(root);
    pass.wall_s = seconds_since(start);
    pass.cpu_s = process_cpu_seconds() - cpu_start;
    return pass;
}

}  // namespace wgabench

#endif  // WGABENCH_TRACED_H

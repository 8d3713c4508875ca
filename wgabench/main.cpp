/**
 * @file
 * wgabench: the repository's end-to-end benchmark program.
 *
 *   wgabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            --workdir <dir> --trace-out <file> [--toy]
 *
 * Generates the workload's inputs from --seed (inputs.h), writes them as
 * FASTA into --workdir, and measures for --seconds. With --trace 0 it
 * times the untraced end-to-end operation and prints the end-to-end
 * metrics; with --trace 1 it adds the traced composition (traced.h) and
 * prints the per-layer metrics. Output checks (MAF digests, serve
 * responses) count toward `failed`; any failure makes `correct` false
 * and the exit code 1. The last stdout line is the result object.
 * wgabench/README.md documents workloads and metrics; wgabench/run.py
 * builds this program and is the command to run.
 */
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "align/kernels/kernel_registry.h"
#include "eval/exon_eval.h"
#include "eval/sensitivity.h"
#include "fault/cancel.h"
#include "index/index_io.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "seq/fasta.h"
#include "seq/packed_io.h"
#include "serve/server.h"
#include "traced.h"
#include "util/digest.h"
#include "wga/maf.h"
#include "wga/pipeline.h"

namespace wgabench {
namespace {

namespace eval = darwin::eval;
namespace serve = darwin::serve;

// ---------------------------------------------------------------- options

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool toy = false;  ///< a few kb per genome: the self-test size
    std::string workdir;
    std::string trace_out;
};

[[noreturn]] void
usage_error(const std::string& message)
{
    std::fprintf(stderr, "wgabench: %s\n", message.c_str());
    std::exit(2);
}

Options
parse_options(int argc, char** argv)
{
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--toy") {
            o.toy = true;
            continue;
        }
        if (i + 1 >= argc)
            usage_error("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                o.workload = value;
            } else if (arg == "--seed") {
                o.seed = std::stoull(value);
                have_seed = true;
            } else if (arg == "--seconds") {
                o.seconds = std::stod(value);
                have_seconds = o.seconds > 0.0;
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    usage_error("--trace takes 0 or 1");
                o.trace = value == "1";
                have_trace = true;
            } else if (arg == "--workdir") {
                o.workdir = value;
            } else if (arg == "--trace-out") {
                o.trace_out = value;
            } else {
                usage_error("unknown option " + arg);
            }
        } catch (const std::logic_error&) {
            usage_error("bad value for " + arg + ": " + value);
        }
    }
    if (o.workload.empty() || !have_seed || !have_seconds || !have_trace ||
        o.workdir.empty() || o.trace_out.empty())
        usage_error("usage: wgabench --workload <name> --seed <n> "
                    "--seconds <s> --trace <0|1> --workdir <dir> "
                    "--trace-out <file> [--toy]");
    return o;
}

// -------------------------------------------------------------- workloads

enum class Kind { Pair, Noise, Serve, Stream };

/** Workload shapes; the names carry the full-size total genome length. */
struct Workload {
    const char* name;
    Kind kind;
    std::size_t chromosome_length;  ///< two chromosomes per genome
};

constexpr Workload kWorkloads[] = {
    {"pair_ce11cb4_240k", Kind::Pair, 120'000},
    {"noise_shuffled_960k", Kind::Noise, 480'000},
    {"serve_queries_4k", Kind::Serve, 120'000},
    {"stream_ce11cb4_240k", Kind::Stream, 120'000},
};

/** Toy chromosome length: a few kb per genome. */
constexpr std::size_t kToyChromosome = 4'000;

/** Per-run sizing that the workload names do not carry. */
struct Shape {
    std::size_t chromosome_length;
    std::size_t window_bp;        ///< serve query window
    std::size_t serve_windows;    ///< distinct windows the serve loop cycles
    std::size_t probe_requests;   ///< serve-layer probe on other workloads
    std::uint64_t stream_shard_bp;
    std::size_t min_ops;          ///< timed operations per run, at least
};

Shape
shape_of(const Workload& w, bool toy)
{
    if (toy)
        return {kToyChromosome, 1024, 4, 4, 2048, 1};
    return {w.chromosome_length, 4096, 48, 8, 32 * 1024, 3};
}

/** Serve and pool width: one worker per hardware thread (nproc). */
std::size_t
num_threads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

// ----------------------------------------------------------------- helpers

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
median(const std::vector<double>& values)
{
    return quantile(values, 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

std::uint64_t
digest_of(const std::string& bytes)
{
    return darwin::fnv1a64_bytes(
        {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Output checks: every attempted operation, and those that failed. */
struct Tally {
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void
    check(bool ok, const std::string& what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "wgabench: check failed: %s\n", what.c_str());
        }
    }
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

// ------------------------------------------------------------------ inputs

/** A workload's generated inputs, written as FASTA into the workdir. */
struct Inputs {
    synth::AnnotatedGenome target;
    synth::AnnotatedGenome query;
    std::string target_fa;
    std::string query_fa;
    std::vector<Window> windows;
    std::vector<std::string> window_fa;
    std::string index_path;
};

Inputs
generate(const Workload& w, const Shape& shape, std::uint64_t seed,
         const std::string& dir)
{
    synth::SpeciesPair pair = make_pair(shape.chromosome_length, seed);
    Inputs in;
    in.target = std::move(pair.target);
    if (w.kind == Kind::Noise) {
        Rng rng(seed ^ 0x6e6f697365ULL);
        // One exon in four: about 5% of the run left to extension.
        in.query = shuffle_outside_exons(pair.query, 4, rng);
    } else {
        in.query = std::move(pair.query);
    }
    in.target_fa = dir + "/target.fa";
    in.query_fa = dir + "/query.fa";
    in.index_path = dir + "/target.dwi";
    seq::write_genome_file(in.target_fa, in.target.genome);
    seq::write_genome_file(in.query_fa, in.query.genome);
    return in;
}

/** Query windows for serve requests, written as one FASTA each. */
void
write_windows(Inputs& in, std::size_t count, std::size_t window_bp,
              const std::string& dir)
{
    in.windows = make_windows(in.target, in.query, count, window_bp);
    darwin::require(!in.windows.empty(), "wgabench: no serve windows");
    in.window_fa.clear();
    for (std::size_t i = 0; i < in.windows.size(); ++i) {
        in.window_fa.push_back(dir + "/win" + std::to_string(i) + ".fa");
        seq::write_genome_file(in.window_fa.back(), in.windows[i].genome);
    }
}

/** Build the target's seed index and persist it as a .dwi. */
void
persist_index(const Inputs& in)
{
    const seq::Genome target = seq::read_genome(in.target_fa);
    const seq::Sequence& flat = target.flattened();
    const seed::SeedPattern pattern(
        wga::WgaParams::darwin_defaults().seed_pattern);
    const seed::SeedIndex index(flat, pattern);
    darwin::index::save_index(in.index_path, index,
                              darwin::index::sequence_digest(flat),
                              flat.size());
}

// ------------------------------------------------------- one-pair operation

/** One untraced ingest -> MAF alignment of the workload's pair. */
struct PairOp {
    double seconds = 0.0;
    std::uint64_t digest = 0;
    wga::WgaResult result;
    double spilled_bytes = 0.0;       ///< streaming only
    double heap_charged_bytes = 0.0;  ///< streaming only
};

darwin::wga::StreamingParams
streaming_params(const Shape& shape, const std::string& dir)
{
    wga::StreamingParams sp;
    sp.shard_bp = shape.stream_shard_bp;
    // Small channel and sort-buffer windows, so the hit channel spills
    // and the candidate drain merges runs at this genome size.
    sp.hit_stream_capacity = 4096;
    sp.candidate_chunk = 1024;
    sp.spill_dir = dir;
    return sp;
}

PairOp
run_pair_op(bool streaming, const Shape& shape, const Inputs& in,
            ThreadPool& pool, const std::string& dir)
{
    const std::string out = dir + "/op.maf";
    const wga::WgaPipeline pipeline(wga::WgaParams::darwin_defaults());
    PairOp op;
    const Clock::time_point start = Clock::now();
    if (streaming) {
        // Packed ingestion without the .2bit sidecar cache, so every
        // operation parses its FASTA like the first one.
        const seq::Genome target =
            seq::read_genome_packed(in.target_fa, "", "");
        const seq::Genome query =
            seq::read_genome_packed(in.query_fa, "", "");
        darwin::obs::MetricsRegistry metrics;
        darwin::fault::CancelToken token;  // unlimited; counts heap charges
        {
            darwin::fault::ContextScope scope(&token, 0);
            op.result = pipeline.run_streaming(
                target, query, streaming_params(shape, dir), &pool, &metrics);
        }
        wga::write_maf_file(out, op.result.alignments, target, query);
        op.seconds = seconds_since(start);
        const auto gauge = [&metrics](const char* name) {
            const darwin::obs::Gauge* g = metrics.find_gauge(name);
            return g != nullptr ? static_cast<double>(g->value()) : 0.0;
        };
        op.spilled_bytes = gauge("wga.heap.spilled_bytes");
        op.heap_charged_bytes = gauge("wga.heap.charged_bytes");
    } else {
        const seq::Genome target = seq::read_genome(in.target_fa);
        const seq::Genome query = seq::read_genome(in.query_fa);
        op.result = pipeline.run(target, query, &pool);
        wga::write_maf_file(out, op.result.alignments, target, query);
        op.seconds = seconds_since(start);
    }
    op.digest = digest_of(read_file(out));
    return op;
}

// ------------------------------------------------------------------- serve

std::string
align_request(std::size_t id, const std::string& target,
              const std::string& query, const std::string& out,
              const std::string& index)
{
    for (const std::string* path : {&target, &query, &out, &index})
        if (path->find_first_of("\"\\") != std::string::npos)
            darwin::fatal("wgabench: path needs JSON escaping: " + *path);
    return "{\"op\": \"align\", \"id\": \"" + std::to_string(id) +
           "\", \"target\": \"" + target + "\", \"query\": \"" + query +
           "\", \"out\": \"" + out + "\", \"index\": \"" + index +
           "\", \"both_strands\": true}";
}

/** Submit one line and block until its response arrives. */
std::string
submit_wait(serve::Server& server, const std::string& line)
{
    std::promise<std::string> response;
    std::future<std::string> ready = response.get_future();
    if (!server.submit(line, [&response](const std::string& r) {
            response.set_value(r);
        }))
        return "";
    return ready.get();
}

bool
response_ok(const std::string& response)
{
    return response.find("\"status\": \"ok\"") != std::string::npos;
}

/** The "seconds" field of an align response: the worker's service time. */
double
response_seconds(const std::string& response)
{
    const std::string key = "\"seconds\": ";
    const std::size_t at = response.find(key);
    return at == std::string::npos
               ? 0.0
               : std::strtod(response.c_str() + at + key.size(), nullptr);
}

/** An in-process server with the persisted target index loaded. */
struct ServeSession {
    std::unique_ptr<darwin::obs::MetricsRegistry> metrics;
    std::unique_ptr<serve::Server> server;  ///< uses *metrics; declared after

    /** Shut the server down before the registry it writes to goes. */
    void
    stop()
    {
        server.reset();
        metrics.reset();
    }
};

ServeSession
start_server(const Inputs& in, const std::string& dir, Tally& tally)
{
    ServeSession s;
    s.metrics = std::make_unique<darwin::obs::MetricsRegistry>();
    serve::ServerOptions options;
    options.num_workers = num_threads();
    s.server = std::make_unique<serve::Server>(options, s.metrics.get());
    // Warm-up: loads the genome and .dwi into the server's caches.
    const std::string response = submit_wait(
        *s.server, align_request(0, in.target_fa, in.window_fa[0],
                                 dir + "/warmup.maf", in.index_path));
    tally.check(response_ok(response), "serve warm-up: " + response);
    for (const char* name :
         {"serve.queue.wait_seconds", "serve.request.seconds"})
        s.server->metrics().histogram(name).reset();
    return s;
}

/** What a closed loop of clients observed. */
struct LoopResult {
    std::vector<double> latency_s;  ///< submit -> response
    std::vector<double> service_s;  ///< the responses' "seconds"
    double elapsed_s = 0.0;
    /** MAF digest of each window's responses (all must agree). */
    std::vector<std::uint64_t> window_digest;
};

/**
 * `clients` closed-loop clients, each sending its next request when the
 * previous one is answered. Requests cycle through the windows; the loop
 * runs until `seconds` pass (and every window was sent once) or
 * `max_requests` were sent, whichever comes first.
 */
LoopResult
closed_loop(serve::Server& server, const Inputs& in, const std::string& dir,
            std::size_t clients, double seconds, std::size_t max_requests,
            Tally& tally)
{
    LoopResult loop;
    const std::size_t windows = in.window_fa.size();
    loop.window_digest.assign(windows, 0);
    std::mutex mutex;  // guards loop and tally
    std::atomic<std::size_t> next{0};
    const Clock::time_point start = Clock::now();
    const auto client = [&](std::size_t c) {
        const std::string out = dir + "/client" + std::to_string(c) + ".maf";
        for (;;) {
            const std::size_t n = next.fetch_add(1);
            if (n >= max_requests ||
                (n >= windows && seconds_since(start) >= seconds))
                return;
            const std::size_t w = n % windows;
            const std::string line = align_request(
                n + 1, in.target_fa, in.window_fa[w], out, in.index_path);
            const Clock::time_point sent = Clock::now();
            const std::string response = submit_wait(server, line);
            const double latency = seconds_since(sent);
            const bool ok = response_ok(response);
            const std::uint64_t digest = ok ? digest_of(read_file(out)) : 0;
            std::lock_guard lock(mutex);
            tally.check(ok, "serve response: " + response);
            if (!ok)
                continue;
            loop.latency_s.push_back(latency);
            loop.service_s.push_back(response_seconds(response));
            std::uint64_t& known = loop.window_digest[w];
            if (known != 0)
                tally.check(known == digest,
                            "serve window " + std::to_string(w) +
                                " answered with different MAF bytes");
            known = digest;
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c)
        threads.emplace_back(client, c);
    for (auto& t : threads)
        t.join();
    loop.elapsed_s = seconds_since(start);
    return loop;
}

/** One-shot WgaPipeline::run_with_index results for the served windows. */
struct OneShot {
    std::vector<wga::WgaResult> results;  ///< per window served
    std::vector<std::size_t> windows;
};

/**
 * Re-align every served window one-shot through run_with_index on the
 * persisted index and check the bytes equal what the server wrote.
 */
OneShot
check_one_shot(const Inputs& in, const LoopResult& loop,
               const std::string& dir, ThreadPool& pool, Tally& tally)
{
    const auto index = darwin::index::load_index(in.index_path);
    const seq::Genome target = seq::read_genome(in.target_fa);
    // Genome::flattened() builds lazily and is not safe to race: build it
    // here, before the workers share it.
    const seq::Sequence& target_flat = target.flattened();
    wga::WgaParams params = wga::WgaParams::darwin_defaults();
    params.align_both_strands = true;
    const wga::WgaPipeline pipeline(params);
    OneShot shot;
    for (std::size_t w = 0; w < loop.window_digest.size(); ++w)
        if (loop.window_digest[w] != 0)
            shot.windows.push_back(w);
    shot.results.resize(shot.windows.size());
    std::vector<std::uint64_t> digests(shot.windows.size());
    pool.parallel_for(0, shot.windows.size(), [&](std::size_t i) {
        const std::size_t w = shot.windows[i];
        const seq::Genome query = seq::read_genome(in.window_fa[w]);
        shot.results[i] = pipeline.run_with_index(*index, target_flat,
                                                  query.flattened());
        const std::string out = dir + "/oneshot" + std::to_string(w) + ".maf";
        wga::write_maf_file(out, shot.results[i].alignments, target, query);
        digests[i] = digest_of(read_file(out));
    }, 1);
    for (std::size_t i = 0; i < shot.windows.size(); ++i)
        tally.check(digests[i] == loop.window_digest[shot.windows[i]],
                    "serve window " + std::to_string(shot.windows[i]) +
                        " differs from one-shot run_with_index");
    return shot;
}

// ----------------------------------------------------------------- quality

struct Quality {
    double matched_bp = 0.0;
    double exon_recall = 0.0;
};

Quality
pair_quality(const Inputs& in, const wga::WgaResult& result)
{
    const auto exons = eval::count_recovered_exons(
        eval::flatten_exons(in.target, in.query), result);
    const auto matched = eval::summarize(result).chains.total_matched_bases;
    return {static_cast<double>(matched), exons.fraction()};
}

Quality
serve_quality(const Inputs& in, const OneShot& shot)
{
    double matched = 0.0;
    std::size_t recovered = 0, total = 0;
    for (std::size_t i = 0; i < shot.windows.size(); ++i) {
        matched += static_cast<double>(
            eval::summarize(shot.results[i]).chains.total_matched_bases);
        const auto exons = eval::count_recovered_exons(
            in.windows[shot.windows[i]].exons, shot.results[i]);
        recovered += exons.recovered;
        total += exons.total_exons;
    }
    return {matched, ratio(static_cast<double>(recovered),
                           static_cast<double>(total))};
}

// -------------------------------------------------------- end-to-end run

/** Set-ups per run; setup_s is their median. A serve set-up builds and
 *  saves an index and starts a server, so it repeats fewer times. */
constexpr int kSetups = 5;
constexpr int kServeSetups = 3;

std::vector<Metric>
run_end_to_end(const Workload& w, const Shape& shape, const Options& o,
               Tally& tally)
{
    const bool serving = w.kind == Kind::Serve;
    ThreadPool pool(num_threads());
    std::vector<double> setups;
    Inputs in;
    ServeSession session;
    for (int i = 0; i < (serving ? kServeSetups : kSetups); ++i) {
        session.stop();
        const Clock::time_point start = Clock::now();
        in = generate(w, shape, o.seed, o.workdir);
        if (serving) {
            write_windows(in, shape.serve_windows, shape.window_bp,
                          o.workdir);
            persist_index(in);
            session = start_server(in, o.workdir, tally);
        }
        setups.push_back(seconds_since(start));
    }

    std::vector<double> op_s, latency_s;
    double elapsed = 0.0, rss = 0.0;
    Quality quality;
    if (serving) {
        const LoopResult loop =
            closed_loop(*session.server, in, o.workdir, num_threads(),
                        o.seconds, SIZE_MAX, tally);
        rss = peak_rss_mb();
        op_s = loop.service_s;
        latency_s = loop.latency_s;
        elapsed = loop.elapsed_s;
        quality = serve_quality(
            in, check_one_shot(in, loop, o.workdir, pool, tally));
        std::fprintf(stderr, "wgabench: %zu requests, %zu windows\n",
                     latency_s.size(), in.window_fa.size());
    } else {
        const Clock::time_point start = Clock::now();
        PairOp last;
        std::uint64_t first_digest = 0;
        while (op_s.size() < shape.min_ops ||
               seconds_since(start) < o.seconds) {
            last = run_pair_op(w.kind == Kind::Stream, shape, in, pool,
                               o.workdir);
            op_s.push_back(last.seconds);
            if (first_digest == 0)
                first_digest = last.digest;
            tally.check(last.digest == first_digest,
                        "repeated alignment gave different MAF bytes");
        }
        elapsed = seconds_since(start);
        rss = peak_rss_mb();
        latency_s = op_s;
        std::string times;
        for (const double t : op_s)
            times += " " + std::to_string(t);
        std::fprintf(stderr, "wgabench: %zu alignments, seconds:%s\n",
                     op_s.size(), times.c_str());
        quality = pair_quality(in, last.result);
    }
    return {
        {"align_s", median(op_s), "s"},
        {"request_p50_s", median(latency_s), "s"},
        {"request_p90_s", quantile(latency_s, 0.9), "s"},
        {"requests_per_s",
         ratio(static_cast<double>(latency_s.size()), elapsed), "1/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", rss, "MiB"},
        {"matched_bp", quality.matched_bp, "bp"},
        {"exon_recall", quality.exon_recall, "fraction"},
    };
}

// ------------------------------------------------------------- traced run

/** Per-layer numbers of the traced passes (medians over passes). */
struct LayerStats {
    std::vector<TracedPass> passes;  ///< N-thread traced passes
    TracedPass single;               ///< one 1-thread traced pass
    std::vector<double> untraced_s;  ///< untraced runs of the same work

    double
    layer_median(const std::string& layer) const
    {
        std::vector<double> v;
        for (const TracedPass& p : passes) {
            const auto it = p.layers.find(layer);
            v.push_back(it == p.layers.end() ? 0.0 : it->second.self_s);
        }
        return median(v);
    }

    double
    busy_fraction(const std::string& layer) const
    {
        std::vector<double> v;
        for (const TracedPass& p : passes) {
            const auto it = p.layers.find(layer);
            if (it != p.layers.end())
                v.push_back(ratio(it->second.cpu_s,
                                  it->second.self_s *
                                      static_cast<double>(p.threads)));
        }
        return median(v);
    }

    /** T1 / (N * TN), TN from the N-thread pass on the same input. */
    double
    parallel_eff(const std::string& layer) const
    {
        if (passes.empty())
            return 0.0;
        const auto self = [&layer](const TracedPass& p) {
            const auto it = p.layers.find(layer);
            return it == p.layers.end() ? 0.0 : it->second.self_s;
        };
        const TracedPass& first = passes.front();
        return ratio(self(single),
                     static_cast<double>(first.threads) * self(first));
    }

    /** Median over the passes of `fn(pass)`. */
    template <class Fn>
    double
    count(Fn fn) const
    {
        std::vector<double> v;
        for (const TracedPass& p : passes)
            v.push_back(fn(p));
        return median(v);
    }
};

/** serve.* and index.* layer numbers. */
struct ServeLayer {
    double queue_wait_p50_s = 0.0;
    double queue_wait_p90_s = 0.0;
    double service_p50_s = 0.0;
    double errors = 0.0;
    double shed = 0.0;
    double index_load_s = 0.0;
    double cache_hit_ratio = 0.0;
};

ServeLayer
serve_layer(serve::Server& server, const Inputs& in)
{
    darwin::obs::MetricsRegistry& m = server.metrics();
    const auto hist = [&m](const char* name, double q) {
        const darwin::obs::Histogram* h = m.find_histogram(name);
        return h != nullptr && h->count() > 0 ? h->quantile(q) : 0.0;
    };
    const auto counter = [&m](const char* name) {
        const darwin::obs::Counter* c = m.find_counter(name);
        return c != nullptr ? static_cast<double>(c->value()) : 0.0;
    };
    ServeLayer s;
    s.queue_wait_p50_s = hist("serve.queue.wait_seconds", 0.5);
    s.queue_wait_p90_s = hist("serve.queue.wait_seconds", 0.9);
    s.service_p50_s = hist("serve.request.seconds", 0.5);
    s.errors = counter("serve.errors");
    s.shed = counter("serve.admission.shed");
    const double hits = counter("serve.index.cache_hits");
    s.cache_hit_ratio = ratio(hits, hits + counter("serve.index.cache_misses"));
    std::vector<double> loads;
    for (int i = 0; i < 3; ++i) {
        const Clock::time_point start = Clock::now();
        const auto index = darwin::index::load_index(in.index_path);
        loads.push_back(seconds_since(start));
    }
    s.index_load_s = median(loads);
    return s;
}

std::vector<Metric>
run_traced(const Workload& w, const Shape& shape, const Options& o,
           Tally& tally)
{
    const bool serving = w.kind == Kind::Serve;
    ThreadPool pool(num_threads());
    ThreadPool single_pool(1);
    SpanRecorder rec;
    LayerStats stats;
    Inputs in = generate(w, shape, o.seed, o.workdir);
    write_windows(in, serving ? shape.serve_windows : shape.probe_requests,
                  shape.window_bp, o.workdir);
    persist_index(in);

    // Serve layer: the serve workload's closed loop for half the run;
    // elsewhere a short probe of this workload's genomes, so the serve
    // and index layers are measured on every workload.
    ServeSession session = start_server(in, o.workdir, tally);
    const LoopResult loop = closed_loop(
        *session.server, in, o.workdir, num_threads(),
        serving ? o.seconds / 2 : 0.0,
        serving ? SIZE_MAX : shape.probe_requests, tally);
    check_one_shot(in, loop, o.workdir, pool, tally);
    const ServeLayer served = serve_layer(*session.server, in);
    session.stop();

    // Traced passes: each paired with an untraced run of the same work
    // (the overhead), plus one 1-thread pass (parallel efficiency).
    double stream_lookups = 0.0, spilled = 0.0, charged = 0.0;
    const auto index = serving ? darwin::index::load_index(in.index_path)
                               : nullptr;
    const seq::Genome target = seq::read_genome(in.target_fa);
    wga::WgaParams serve_params = wga::WgaParams::darwin_defaults();
    serve_params.align_both_strands = true;
    const wga::WgaPipeline serve_pipeline(serve_params);
    const double traced_seconds = serving ? o.seconds / 2 : o.seconds;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i == 0 || seconds_since(start) < traced_seconds;
         ++i) {
        const std::string query_fa =
            serving ? in.window_fa[i % in.window_fa.size()] : in.query_fa;
        std::uint64_t digest = 0;
        if (serving) {
            const std::string out = o.workdir + "/untraced.maf";
            const Clock::time_point t0 = Clock::now();
            const seq::Genome query = seq::read_genome(query_fa);
            const wga::WgaResult result = serve_pipeline.run_with_index(
                *index, target.flattened(), query.flattened(), &pool);
            wga::write_maf_file(out, result.alignments, target, query);
            stats.untraced_s.push_back(seconds_since(t0));
            digest = digest_of(read_file(out));
        } else {
            // The overhead reference is the in-RAM pipeline, the same
            // work the composition does; the stream workload also runs
            // its own streaming operation for the stream.* numbers.
            const PairOp op = run_pair_op(false, shape, in, pool, o.workdir);
            stats.untraced_s.push_back(op.seconds);
            digest = op.digest;
            if (w.kind == Kind::Stream) {
                const PairOp streamed =
                    run_pair_op(true, shape, in, pool, o.workdir);
                tally.check(streamed.digest == digest,
                            "streaming MAF differs from the in-RAM pipeline's");
                stream_lookups = static_cast<double>(
                    streamed.result.stats.seeding.seed_lookups);
                spilled = streamed.spilled_bytes;
                charged = streamed.heap_charged_bytes;
            }
        }
        stats.passes.push_back(traced_align(rec, in.target_fa, query_fa,
                                            index.get(), serving, &pool,
                                            o.workdir + "/traced.maf"));
        tally.check(digest_of(stats.passes.back().maf) == digest,
                    "traced composition MAF differs from the untraced run");
        if (i == 0) {
            stats.single = traced_align(rec, in.target_fa, query_fa,
                                        index.get(), serving, &single_pool,
                                        o.workdir + "/traced1.maf");
            tally.check(stats.single.maf == stats.passes.back().maf,
                        "1-thread traced MAF differs from the N-thread one");
        }
    }
    rec.write_json(o.trace_out);

    std::vector<double> traced_s, coverage, pool_busy;
    for (const TracedPass& p : stats.passes) {
        traced_s.push_back(p.wall_s);
        double self = 0.0;
        for (const auto& [name, t] : p.layers)
            self += t.self_s;
        coverage.push_back(ratio(self, p.wall_s));
        pool_busy.push_back(
            ratio(p.cpu_s, p.wall_s * static_cast<double>(p.threads)));
    }
    // Work counters, as medians over the passes (serve passes differ by
    // window; pair passes repeat one input).
    using Stats = wga::PipelineStats;
    const auto work = [&stats](auto field) {
        return stats.count([&field](const TracedPass& p) {
            return static_cast<double>(field(p.result.stats));
        });
    };
    const auto share = [](std::uint64_t part, std::uint64_t whole) {
        return ratio(static_cast<double>(part), static_cast<double>(whole));
    };
    const double filter_s = stats.layer_median("filter");
    const double extend_s = stats.layer_median("extend");
    const double lookups =
        work([](const Stats& s) { return s.seeding.seed_lookups; });
    const double filter_cells =
        work([](const Stats& s) { return s.filter.cells; });
    const double extend_cells =
        work([](const Stats& s) { return s.extend.extension.cells; });
    return {
        {"seq.load_s", stats.layer_median("seq"), "s"},
        {"seed.s", stats.layer_median("seed"), "s"},
        {"seed.lookups", lookups, "count"},
        {"seed.hits", work([](const Stats& s) { return s.seeding.seed_hits; }),
         "count"},
        {"seed.busy_fraction", stats.busy_fraction("seed"), "fraction"},
        {"seed.parallel_eff", stats.parallel_eff("seed"), "fraction"},
        {"filter.s", filter_s, "s"},
        {"filter.tiles", work([](const Stats& s) { return s.filter.tiles; }),
         "count"},
        {"filter.cells", filter_cells, "count"},
        {"filter.gcups", ratio(filter_cells, filter_s) * 1e-9, "Gcell/s"},
        {"filter.pass_ratio", work([&share](const Stats& s) {
             return share(s.filter.passed, s.filter.tiles);
         }), "fraction"},
        {"filter.busy_fraction", stats.busy_fraction("filter"), "fraction"},
        {"filter.parallel_eff", stats.parallel_eff("filter"), "fraction"},
        {"extend.s", extend_s, "s"},
        {"extend.anchors_in",
         work([](const Stats& s) { return s.extend.anchors_in; }), "count"},
        {"extend.anchor_yield", work([&share](const Stats& s) {
             return share(s.extend.alignments_out, s.extend.anchors_in);
         }), "fraction"},
        {"extend.tiles",
         work([](const Stats& s) { return s.extend.extension.tiles; }),
         "count"},
        {"extend.cells", extend_cells, "count"},
        {"extend.gcups", ratio(extend_cells, extend_s) * 1e-9, "Gcell/s"},
        {"extend.xdrop_terminations", work([](const Stats& s) {
             return s.extend.extension.xdrop_terminations;
         }), "count"},
        {"extend.busy_fraction", stats.busy_fraction("extend"), "fraction"},
        {"extend.parallel_eff", stats.parallel_eff("extend"), "fraction"},
        {"chain.s", stats.layer_median("chain"), "s"},
        {"maf.s", stats.layer_median("maf"), "s"},
        {"maf.bytes", stats.count([](const TracedPass& p) {
             return static_cast<double>(p.maf.size());
         }), "bytes"},
        {"pool.busy_fraction", median(pool_busy), "fraction"},
        {"stream.seed_lookup_ratio", ratio(stream_lookups, lookups), "ratio"},
        {"stream.spilled_bytes", spilled, "bytes"},
        {"stream.heap_charged_bytes", charged, "bytes"},
        {"serve.queue_wait_p50_s", served.queue_wait_p50_s, "s"},
        {"serve.queue_wait_p90_s", served.queue_wait_p90_s, "s"},
        {"serve.service_p50_s", served.service_p50_s, "s"},
        {"serve.errors", served.errors, "count"},
        {"serve.shed", served.shed, "count"},
        {"index.load_s", served.index_load_s, "s"},
        {"index.cache_hit_ratio", served.cache_hit_ratio, "fraction"},
        {"trace.overhead_fraction",
         ratio(median(traced_s), median(stats.untraced_s)) - 1.0, "fraction"},
        {"trace.layer_coverage", median(coverage), "fraction"},
    };
}

// ------------------------------------------------------------------ output

void
print_environment(const Options& o)
{
    const auto& registry = darwin::align::kernels::KernelRegistry::instance();
    const auto env = [](const char* name) {
        const char* v = std::getenv(name);
        return std::string(v != nullptr ? v : "");
    };
    std::printf("{\"env\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"kernel\": \"%s\", \"kernel_id\": %d, \"backend\": \"%s\", "
                "\"backend_id\": %d, \"DARWIN_KERNEL\": \"%s\", "
                "\"DARWIN_BACKEND\": \"%s\", \"nproc\": %zu, "
                "\"build_type\": \"%s\", \"toy\": %s}}\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                registry.active().name, registry.active().id,
                registry.active_backend().name, registry.active_backend().id,
                env("DARWIN_KERNEL").c_str(), env("DARWIN_BACKEND").c_str(),
                num_threads(), WGABENCH_BUILD_TYPE, o.toy ? "true" : "false");
}

void
print_result(const Tally& tally, const std::vector<Metric>& metrics)
{
    std::string out = "{\"correct\": ";
    out += tally.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

int
run(int argc, char** argv)
{
    const Options o = parse_options(argc, argv);
    // Injected faults would make failures (and timings) the plan's, not
    // the program's: refuse instead of measuring them.
    if (const char* fault = std::getenv("DARWIN_FAULT");
        fault != nullptr && *fault != '\0')
        usage_error("DARWIN_FAULT is set; refusing to benchmark with "
                    "injected faults");
    const Workload* workload = nullptr;
    for (const Workload& w : kWorkloads)
        if (o.workload == w.name)
            workload = &w;
    if (workload == nullptr)
        usage_error("unknown workload " + o.workload);
    std::filesystem::create_directories(o.workdir);
    print_environment(o);

    const Shape shape = shape_of(*workload, o.toy);
    Tally tally;
    std::vector<Metric> metrics =
        o.trace ? run_traced(*workload, shape, o, tally)
                : run_end_to_end(*workload, shape, o, tally);
    if (o.trace)
        metrics.push_back({"failed_fraction",
                           ratio(static_cast<double>(tally.failed),
                                 static_cast<double>(tally.attempted)),
                           "fraction"});
    for (Metric& m : metrics) {
        if (!std::isfinite(m.value)) {
            tally.check(false, "metric " + m.name + " is not finite");
            m.value = 0.0;
        }
    }
    print_result(tally, metrics);
    return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace wgabench

int
main(int argc, char** argv)
{
    try {
        return wgabench::run(argc, argv);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "wgabench: error: %s\n", error.what());
        return 1;
    }
}

// apn_perfbench: host-cost benchmark of the simulator over four workloads
// taken from the paper's evidence (arXiv:1307.8276):
//
//   p2p_bandwidth      Fig. 4 GPU-read sweep + Fig. 6 two-node 4 KB-4 MB
//   small_msg_latency  Figs. 8-9 ping-pong over APEnet+ and minimpi/IB
//   bfs_teps           Table IV, scale 16, NP 1/2/4/8, APEnet+ and IB
//   hsg_scaling        Fig. 11, L 128/256/512, NP 1/2/4/8, three P2P modes
//   apps               bfs_teps and hsg_scaling points in one shuffled pass
//
// One process, one worker: the points of a workload run one after another,
// each on a fresh Simulator + Cluster, and the whole list is repeated
// ("passes") until --seconds have elapsed. Every layer is called through
// its public functions and timed from outside; counters are read from the
// public accessors after each call. See README.md for the metric list, the
// per-layer predictions and the traced mode.
#include <sys/personality.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "apps/bfs/bfs.hpp"
#include "apps/hsg/runner.hpp"
#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "hw/profile.hpp"
#include "pcie/fabric.hpp"
#include "trace/metrics.hpp"

namespace perfbench {

using namespace apn;
using alloc::Layer;

// ---------------------------------------------------------------------------
// Host clock
// ---------------------------------------------------------------------------

/// Host nanoseconds on a monotonic clock. The only place the benchmark reads
/// host time: measuring the simulator's host cost is the benchmark's whole
/// purpose, and none of these readings ever reaches simulated time.
std::int64_t host_ns() {
  // apn-lint: allow(wall-clock) — benchmark timing, never fed to the model
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------------
// Spans (traced passes only)
// ---------------------------------------------------------------------------

/// One timed interval. Spans of one point share `point`. Simulator dispatch
/// is recorded as one aggregate "sim.dispatch" child per call, whose length
/// is the summed host time of the call's events.
struct Span {
  const char* name;
  int parent;  ///< index into the span list, -1 for a root
  std::uint32_t point;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t events;
};

class Tracer {
 public:
  bool on = false;
  std::vector<Span> spans;

  int begin(const char* name, std::uint32_t point) {
    if (!on) return -1;
    spans.push_back({name, open_, point, host_ns(), 0, 0});
    open_ = static_cast<int>(spans.size()) - 1;
    return open_;
  }
  void end(int id) {
    if (id < 0) return;
    spans[static_cast<std::size_t>(id)].end_ns = host_ns();
    open_ = spans[static_cast<std::size_t>(id)].parent;
  }
  /// Attach an already-measured child (the aggregate dispatch span).
  void child(const char* name, int parent, std::int64_t start,
             std::int64_t len, std::uint64_t events) {
    if (parent < 0) return;
    spans.push_back({name, parent,
                     spans[static_cast<std::size_t>(parent)].point, start,
                     start + len, events});
  }

 private:
  int open_ = -1;
};

/// Host time inside event dispatch, through the public Simulator hook.
class DispatchHook final : public sim::EventHook {
 public:
  explicit DispatchHook(const sim::Simulator& sim) : sim_(&sim) {}
  void on_event_begin(Time, std::uint64_t, std::uint64_t) override {
    pending_peak = std::max(pending_peak, sim_->pending());
    t0_ = host_ns();
  }
  void on_event_end() override { ns += host_ns() - t0_; }

  std::int64_t ns = 0;
  std::size_t pending_peak = 0;

 private:
  const sim::Simulator* sim_;
  std::int64_t t0_ = 0;
};

// ---------------------------------------------------------------------------
// Per-pass accounting
// ---------------------------------------------------------------------------

/// Deterministic per-pass totals: the same on every pass and, outside the
/// workloads with BFS points, under every seed (allocations within kAllocRelTol).
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t run_allocs = 0;
  std::uint64_t cluster_allocs = 0;
  std::uint64_t app_setup_allocs = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t gpu_tx_requests = 0;
  std::uint64_t p2p_requests = 0;
  std::uint64_t p2p_bytes = 0;
  std::uint64_t window_switches = 0;
  std::uint64_t bar1_reads = 0;
  std::uint64_t reg_hits = 0;
  std::uint64_t reg_misses = 0;
  std::uint64_t puts = 0;  ///< PUTs carried by APEnet+ harness calls
  std::uint64_t mpi_msgs = 0;
  std::uint64_t nios_busy_ps = 0;  ///< simulated, summed over cards
  std::uint64_t card_span_ps = 0;  ///< simulated run length x cards
  // Traced passes only (bus analyzers, dispatch hook).
  std::uint64_t tlps = 0;
  std::uint64_t tlp_bytes = 0;
  std::uint64_t put_tlps = 0;  ///< TLPs of points whose PUT count is known
  std::uint64_t pending_peak = 0;

};

/// Allocation counts include the APEnet+ V2P radix-tree nodes for host
/// buffers, and how many nodes a buffer needs depends on where the host heap
/// placed it (a buffer that straddles a 2 MB region needs one more). So they
/// may differ by a few between passes; every other count must match exactly.
constexpr double kAllocRelTol = 1e-4;

/// The fields where `a` and `b` differ beyond the tolerances above, with
/// both values; empty when the counts agree.
std::string count_diff(const Counts& a, const Counts& b) {
  static const std::pair<const char*, std::uint64_t Counts::*> kAllocs[] = {
      {"run_allocs", &Counts::run_allocs},
      {"cluster_allocs", &Counts::cluster_allocs},
      {"app_setup_allocs", &Counts::app_setup_allocs},
  };
  static const std::pair<const char*, std::uint64_t Counts::*> kFields[] = {
      {"events", &Counts::events},
      {"tx_packets", &Counts::tx_packets},
      {"rx_packets", &Counts::rx_packets},
      {"gpu_tx_requests", &Counts::gpu_tx_requests},
      {"p2p_requests", &Counts::p2p_requests},
      {"p2p_bytes", &Counts::p2p_bytes},
      {"window_switches", &Counts::window_switches},
      {"bar1_reads", &Counts::bar1_reads},
      {"reg_hits", &Counts::reg_hits},
      {"reg_misses", &Counts::reg_misses},
      {"puts", &Counts::puts},
      {"mpi_msgs", &Counts::mpi_msgs},
      {"nios_busy_ps", &Counts::nios_busy_ps},
      {"card_span_ps", &Counts::card_span_ps},
      {"tlps", &Counts::tlps},
      {"tlp_bytes", &Counts::tlp_bytes},
      {"put_tlps", &Counts::put_tlps},
      {"pending_peak", &Counts::pending_peak},
  };
  std::string out;
  auto report = [&](const char* name, std::uint64_t x, std::uint64_t y) {
    out += strf(" %s %llu != %llu", name, static_cast<unsigned long long>(x),
                static_cast<unsigned long long>(y));
  };
  for (const auto& [name, field] : kFields)
    if (a.*field != b.*field) report(name, a.*field, b.*field);
  for (const auto& [name, field] : kAllocs) {
    const double x = static_cast<double>(a.*field);
    const double y = static_cast<double>(b.*field);
    if (std::fabs(x - y) > kAllocRelTol * std::max(x, y))
      report(name, a.*field, b.*field);
  }
  return out;
}

/// Host times of one pass, in nanoseconds.
struct Times {
  std::int64_t wall = 0;
  std::int64_t points = 0;
  std::int64_t cluster = 0;
  std::int64_t run = 0;
  std::int64_t apenet_run = 0;
  std::int64_t mpi_run = 0;
  std::int64_t bfs_graph = 0;
  std::int64_t bfs_run = 0;
  std::int64_t hsg_build = 0;
  std::int64_t hsg_run = 0;
  std::int64_t dispatch = 0;
  std::int64_t bfs_dispatch = 0;
  std::int64_t hsg_dispatch = 0;
  std::int64_t rmat = 0;
  std::int64_t csr = 0;
  std::vector<double> point_ms;

  std::int64_t setup() const { return cluster + bfs_graph + hsg_build; }
};

struct PassResult {
  bool traced = false;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  Counts c;
  Times t;
  std::map<std::string, std::int64_t> self_ns;  ///< traced: per layer
};

/// What a run call is, for attributing its host time.
enum class Call { kApenet, kIb, kBfs, kHsg };

/// A point that must be counted as failed.
struct PointError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Measurement context handed to a point body: every call into a layer goes
/// through one of these methods, which time it, attribute its allocations
/// and read the layer's counters afterwards.
class Ctx {
 public:
  Ctx(PassResult& r, Tracer& tr, std::uint32_t point)
      : r_(r), tr_(tr), point_(point) {}

  std::unique_ptr<cluster::Cluster> cluster_i(sim::Simulator& sim, int nodes,
                                              core::ApenetParams p) {
    return build_cluster([&] {
      return cluster::Cluster::make_cluster_i(sim, nodes, p, false);
    });
  }
  std::unique_ptr<cluster::Cluster> cluster_ii(sim::Simulator& sim, int nodes,
                                               mpi::MpiParams mp = {}) {
    return build_cluster([&] {
      return cluster::Cluster::make_cluster_ii(sim, nodes, true, mp);
    });
  }

  /// Application constructor (BfsRun builds its graph here).
  template <typename F>
  auto app_setup(const char* span, Call app, F&& f) {
    std::int64_t& acc = app == Call::kBfs ? r_.t.bfs_graph : r_.t.hsg_build;
    const std::uint64_t a0 = alloc::count(Layer::kAppSetup);
    const int id = tr_.begin(span, point_);
    const std::int64_t t0 = host_ns();
    auto out = [&] {
      alloc::Scope scope(Layer::kAppSetup);
      return f();
    }();
    acc += host_ns() - t0;
    tr_.end(id);
    r_.c.app_setup_allocs += alloc::count(Layer::kAppSetup) - a0;
    return out;
  }

  /// A harness or application run call. `ops` is the number of PUTs
  /// (kApenet) or MPI messages (kIb) the call carries.
  template <typename F>
  auto run(cluster::Cluster& c, const char* span, Call kind,
           std::uint64_t ops, F&& f) {
    sim::Simulator& sim = c.simulator();
    DispatchHook hook(sim);
    if (tr_.on) sim.set_event_hook(&hook);
    const std::uint64_t e0 = sim.events_processed();
    const std::uint64_t a0 = alloc::count(Layer::kRun);
    const int id = tr_.begin(span, point_);
    const std::int64_t t0 = host_ns();
    auto out = [&] {
      alloc::Scope scope(Layer::kRun);
      return f();
    }();
    const std::int64_t dt = host_ns() - t0;
    tr_.child("sim.dispatch", id, t0, hook.ns,
              sim.events_processed() - e0);
    tr_.end(id);
    sim.set_event_hook(nullptr);

    Counts& k = r_.c;
    Times& t = r_.t;
    k.run_allocs += alloc::count(Layer::kRun) - a0;
    k.events += sim.events_processed() - e0;
    k.pending_peak = std::max<std::uint64_t>(k.pending_peak,
                                             hook.pending_peak);
    t.run += dt;
    t.dispatch += hook.ns;
    if (c.has_apenet()) t.apenet_run += dt;
    switch (kind) {
      case Call::kApenet: k.puts += ops; break;
      case Call::kIb:
        k.mpi_msgs += ops;
        t.mpi_run += dt;
        break;
      case Call::kBfs:
        t.bfs_run += dt;
        t.bfs_dispatch += hook.ns;
        break;
      case Call::kHsg:
        t.hsg_run += dt;
        t.hsg_dispatch += hook.ns;
        break;
    }
    for (int i = 0; i < c.size(); ++i) {
      cluster::Node& n = c.node(i);
      if (!n.has_apenet()) continue;
      k.nios_busy_ps += static_cast<std::uint64_t>(n.card().nios().busy_time());
      k.card_span_ps += static_cast<std::uint64_t>(sim.now());
      k.reg_hits += n.rdma().registration_cache_hits();
      k.reg_misses += n.rdma().registration_cache_misses();
    }
    std::uint64_t tlps = 0;
    for (const auto& a : analyzers_) {
      tlps += a->events().size();
      for (const pcie::BusEvent& ev : a->events()) k.tlp_bytes += ev.bytes;
      a->clear();
    }
    k.tlps += tlps;
    if (kind == Call::kApenet) k.put_tlps += tlps;
    return out;
  }

  /// After the point, registry counter `counter` must read exactly `bytes`.
  void expect_bytes(const char* counter, std::uint64_t bytes) {
    bytes_checks_.push_back({counter, bytes});
  }

  /// Fold the point's metrics registry into the pass totals and run the
  /// byte checks; throws PointError on a mismatch.
  void finish(trace::MetricsRegistry& m) {
    Counts& k = r_.c;
    k.tx_packets += m.counter("card.tx.packets").value();
    k.rx_packets += m.counter("card.rx.packets").value();
    k.gpu_tx_requests += m.counter("card.gpu_tx.requests").value();
    k.p2p_requests += m.counter("gpu.p2p.requests").value();
    k.p2p_bytes += m.counter("gpu.p2p.bytes").value();
    k.window_switches += m.counter("gpu.window_switches").value();
    k.bar1_reads += m.counter("gpu.bar1.reads").value();
    for (const auto& [name, want] : bytes_checks_) {
      const std::uint64_t got = m.counter(name).value();
      if (got != want)
        throw PointError(strf("%s = %llu, expected %llu", name.c_str(),
                              static_cast<unsigned long long>(got),
                              static_cast<unsigned long long>(want)));
    }
  }

 private:
  template <typename F>
  std::unique_ptr<cluster::Cluster> build_cluster(F&& f) {
    const std::uint64_t a0 = alloc::count(Layer::kCluster);
    const int id = tr_.begin("cluster.make", point_);
    const std::int64_t t0 = host_ns();
    std::unique_ptr<cluster::Cluster> c;
    {
      alloc::Scope scope(Layer::kCluster);
      c = f();
    }
    r_.t.cluster += host_ns() - t0;
    tr_.end(id);
    r_.c.cluster_allocs += alloc::count(Layer::kCluster) - a0;
    if (tr_.on) {
      // One analyzer on each APEnet+ card slot: pcie.* counts the TLPs
      // crossing the card's PCIe edge.
      for (int i = 0; i < c->size(); ++i) {
        cluster::Node& n = c->node(i);
        if (!n.has_apenet()) continue;
        analyzers_.push_back(std::make_unique<pcie::BusAnalyzer>());
        n.fabric().attach_analyzer(n.card_pcie_node(), *analyzers_.back());
      }
    }
    return c;
  }

  PassResult& r_;
  Tracer& tr_;
  std::uint32_t point_;
  std::vector<std::unique_ptr<pcie::BusAnalyzer>> analyzers_;
  std::vector<std::pair<std::string, std::uint64_t>> bytes_checks_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// A point returns its simulated result (MB/s, us, TEPS, ps/spin); it must
/// be finite, positive and equal to the stored expected value.
struct Point {
  std::string name;
  std::function<double(Ctx&)> body;
};

/// The workloads whose points are defined here; `apps` combines two of them.
const char* const kWorkloads[] = {"p2p_bandwidth", "small_msg_latency",
                                  "bfs_teps", "hsg_scaling"};

/// bfs_teps draws its graph from this many captured (R-MAT, root) seed
/// pairs, so every seed has stored expected TEPS values.
constexpr std::uint64_t kGraphVariants = 8;
constexpr int kBfsScale = 16;
constexpr int kBfsEdgeFactor = 16;
/// Ping-pong repetitions per small_msg_latency point: enough that a pass
/// of the workload takes on the order of a second of host time.
constexpr int kPingPongReps = 4000;

std::vector<std::uint64_t> sizes(std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t s = lo; s <= hi; s *= 2) v.push_back(s);
  return v;
}

/// Repetitions that keep total traffic near `target` bytes (as the paper
/// benches do): between 4 and 512 messages.
int reps_for(std::uint64_t size, std::uint64_t target) {
  return static_cast<int>(std::clamp<std::uint64_t>(target / size, 4, 512));
}

struct Combo {
  const char* label;
  core::MemType src, dst;
};
const Combo kCombos[] = {
    {"H-H", core::MemType::kHost, core::MemType::kHost},
    {"H-G", core::MemType::kHost, core::MemType::kGpu},
    {"G-H", core::MemType::kGpu, core::MemType::kHost},
    {"G-G", core::MemType::kGpu, core::MemType::kGpu},
};

/// Fig. 4 point: single-node GPU read bandwidth with the TX FIFOs flushed.
Point read_point(const char* label, core::P2pTxVersion ver,
                 std::uint32_t window, std::uint64_t size) {
  return {strf("fig4/%s/%s", label, size_label(size).c_str()),
          [=](Ctx& ctx) {
            sim::Simulator sim;
            core::ApenetParams p = hw::params();
            p.flush_at_switch = true;
            p.p2p_tx_version = ver;
            p.p2p_prefetch_window = window;
            auto c = ctx.cluster_i(sim, 1, p);
            const int reps = reps_for(size, 16ull << 20);
            auto r = ctx.run(*c, "harness.loopback_bandwidth", Call::kApenet,
                             static_cast<std::uint64_t>(reps), [&] {
                               return cluster::loopback_bandwidth(
                                   *c, 0, core::MemType::kGpu, size, reps);
                             });
            ctx.expect_bytes("card.gpu_tx.bytes",
                             size * static_cast<std::uint64_t>(reps));
            return r.mbps;
          }};
}

std::vector<Point> p2p_bandwidth() {
  struct Config {
    const char* label;
    core::P2pTxVersion ver;
    std::uint32_t window;
  };
  const Config configs[] = {
      {"v1", core::P2pTxVersion::kV1, 4096},
      {"v2w4K", core::P2pTxVersion::kV2, 4 * 1024},
      {"v2w8K", core::P2pTxVersion::kV2, 8 * 1024},
      {"v2w16K", core::P2pTxVersion::kV2, 16 * 1024},
      {"v2w32K", core::P2pTxVersion::kV2, 32 * 1024},
      {"v3w64K", core::P2pTxVersion::kV3, 64 * 1024},
      {"v3w128K", core::P2pTxVersion::kV3, 128 * 1024},
  };
  std::vector<Point> pts;
  for (std::uint64_t size : sizes(4096, 4ull << 20))
    for (const Config& cfg : configs)
      pts.push_back(read_point(cfg.label, cfg.ver, cfg.window, size));
  for (std::uint64_t size : sizes(4096, 4ull << 20)) {
    for (const Combo& combo : kCombos) {
      pts.push_back(
          {strf("fig6/%s/%s", combo.label, size_label(size).c_str()),
           [=](Ctx& ctx) {
             sim::Simulator sim;
             auto c = ctx.cluster_i(sim, 2, hw::params());
             cluster::TwoNodeOptions opt;
             opt.src_type = combo.src;
             opt.dst_type = combo.dst;
             const int reps = reps_for(size, 12ull << 20);
             auto r = ctx.run(*c, "harness.twonode_bandwidth", Call::kApenet,
                              static_cast<std::uint64_t>(reps), [&] {
                                return cluster::twonode_bandwidth(*c, size,
                                                                  reps, opt);
                              });
             ctx.expect_bytes("card.rx.bytes",
                              size * static_cast<std::uint64_t>(reps));
             return r.mbps;
           }});
    }
  }
  return pts;
}

std::vector<Point> small_msg_latency() {
  std::vector<Point> pts;
  for (std::uint64_t size : sizes(32, 4096)) {
    for (const Combo& combo : kCombos) {
      pts.push_back(
          {strf("fig8/%s/%s", combo.label, size_label(size).c_str()),
           [=](Ctx& ctx) {
             sim::Simulator sim;
             auto c = ctx.cluster_i(sim, 2, hw::params());
             cluster::TwoNodeOptions opt;
             opt.src_type = combo.src;
             opt.dst_type = combo.dst;
             const std::uint64_t msgs = 2ull * kPingPongReps;
             Time lat = ctx.run(*c, "harness.pingpong_latency", Call::kApenet,
                                msgs, [&] {
                                  return cluster::pingpong_latency(
                                      *c, size, kPingPongReps, opt);
                                });
             ctx.expect_bytes("card.rx.bytes", size * msgs);
             return units::to_us(lat);
           }});
    }
    for (bool gpu : {true, false}) {
      pts.push_back(
          {strf("fig9/IB-%s/%s", gpu ? "G-G" : "H-H",
                size_label(size).c_str()),
           [=](Ctx& ctx) {
             sim::Simulator sim;
             auto c = ctx.cluster_ii(sim, 2);
             Time lat = ctx.run(
                 *c, gpu ? "harness.ib_gg_latency" : "harness.ib_hh_latency",
                 Call::kIb, 2ull * kPingPongReps, [&] {
                   return gpu ? cluster::ib_gg_latency(*c, size,
                                                       kPingPongReps)
                              : cluster::ib_hh_latency(*c, size,
                                                       kPingPongReps);
                 });
             return units::to_us(lat);
           }});
    }
  }
  return pts;
}

apps::bfs::BfsConfig bfs_config(std::uint64_t variant) {
  apps::bfs::BfsConfig cfg;
  cfg.scale = kBfsScale;
  cfg.edge_factor = kBfsEdgeFactor;
  cfg.seed = 1 + variant;
  cfg.root_seed = 7 + variant;
  return cfg;
}

std::vector<Point> bfs_teps(std::uint64_t variant) {
  std::vector<Point> pts;
  for (int np : {1, 2, 4, 8}) {
    for (apps::bfs::BfsNet net :
         {apps::bfs::BfsNet::kApenet, apps::bfs::BfsNet::kIb}) {
      const bool ib = net == apps::bfs::BfsNet::kIb;
      pts.push_back(
          {strf("table4/g%llu/%s/np%d",
                static_cast<unsigned long long>(variant),
                ib ? "ib" : "apenet", np),
           [=](Ctx& ctx) {
             sim::Simulator sim;
             // The paper's IB reference for the applications is
             // OpenMPI-era staging (as in the Table IV bench).
             auto c = ib ? ctx.cluster_ii(sim, np, mpi::openmpi2012_params())
                         : ctx.cluster_i(sim, np, hw::params());
             apps::bfs::BfsConfig cfg = bfs_config(variant);
             cfg.net = net;
             auto run = ctx.app_setup("apps.bfs.build", Call::kBfs, [&] {
               return std::make_unique<apps::bfs::BfsRun>(*c, cfg);
             });
             auto m = ctx.run(*c, "apps.bfs.run", Call::kBfs, 0,
                              [&] { return run->run(); });
             if (!m.validated) throw PointError("BFS parent tree invalid");
             return m.teps;
           }});
    }
  }
  return pts;
}

std::vector<Point> hsg_scaling() {
  using apps::hsg::CommMode;
  std::vector<Point> pts;
  for (int L : {128, 256, 512}) {
    for (int np : {1, 2, 4, 8}) {
      for (CommMode mode :
           {CommMode::kP2pOff, CommMode::kP2pRx, CommMode::kP2pOn}) {
        pts.push_back(
            {strf("fig11/L%d/np%d/%s", L, np, apps::hsg::comm_mode_name(mode)),
             [=](Ctx& ctx) {
               sim::Simulator sim;
               core::ApenetParams p = hw::params();
               p.torus_link_gbps = 20.0;  // Fig. 11 used 20 Gbps links
               p.p2p_tx_version = core::P2pTxVersion::kV2;
               p.p2p_prefetch_window = 32 * 1024;
               auto c = ctx.cluster_i(sim, np, p);
               apps::hsg::HsgConfig cfg;
               cfg.L = L;
               cfg.steps = 2;
               cfg.mode = mode;
               cfg.functional = false;
               auto run = ctx.app_setup("apps.hsg.build", Call::kHsg, [&] {
                 return std::make_unique<apps::hsg::HsgRun>(*c, cfg);
               });
               auto m = ctx.run(*c, "apps.hsg.run", Call::kHsg, 0,
                                [&] { return run->run(); });
               return m.ttot_ps;
             }});
      }
    }
  }
  return pts;
}

/// True for the workloads that run the BFS points.
bool has_bfs(const std::string& workload) {
  return workload == "bfs_teps" || workload == "apps";
}

/// The workload's points in seed-shuffled order. The seed only permutes the
/// points, except where BFS runs, where it also picks the graph. `apps` runs
/// the points of both applications in one pass.
std::vector<Point> make_points(const std::string& workload,
                               std::uint64_t seed) {
  std::vector<Point> pts;
  if (workload == "p2p_bandwidth") pts = p2p_bandwidth();
  else if (workload == "small_msg_latency") pts = small_msg_latency();
  else if (workload == "bfs_teps") pts = bfs_teps(seed % kGraphVariants);
  else if (workload == "hsg_scaling") pts = hsg_scaling();
  else if (workload == "apps") {
    pts = bfs_teps(seed % kGraphVariants);
    for (Point& p : hsg_scaling()) pts.push_back(std::move(p));
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  Rng rng(seed);
  for (std::size_t i = pts.size(); i > 1; --i)
    std::swap(pts[i - 1], pts[rng.next_below(i)]);
  return pts;
}

/// A point that must fail: with a zero prefetch window the GPU read engine
/// never issues a request, and the simulator drains with the G-G PUTs
/// outstanding. Used by the self-test only; it belongs to no workload.
Point known_bad_point() {
  return {"fig6/G-G-w0/64K", [](Ctx& ctx) {
            sim::Simulator sim;
            core::ApenetParams p = hw::params();
            p.p2p_prefetch_window = 0;
            auto c = ctx.cluster_i(sim, 2, p);
            cluster::TwoNodeOptions opt;
            opt.src_type = core::MemType::kGpu;
            opt.dst_type = core::MemType::kGpu;
            const std::uint64_t size = 64 * 1024;
            auto r = ctx.run(*c, "harness.twonode_bandwidth", Call::kApenet,
                             16, [&] {
                               return cluster::twonode_bandwidth(*c, size, 16,
                                                                 opt);
                             });
            ctx.expect_bytes("card.rx.bytes", size * 16);
            return r.mbps;
          }};
}

// ---------------------------------------------------------------------------
// Expected values
// ---------------------------------------------------------------------------

/// Expected value by point name. Point names are unique across workloads,
/// so a workload that combines points of others finds theirs.
using Expected = std::map<std::string, double>;

/// Relative tolerance of the expected-value check: far below any model
/// change, above floating-point contraction differences between builds.
constexpr double kExpectedRelTol = 1e-9;

Expected load_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected values: " + path);
  Expected e;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t a = line.find('\t');
    const std::size_t b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos)
      throw std::runtime_error("malformed expected line: " + line);
    const std::string point = line.substr(a + 1, b - a - 1);
    if (!e.emplace(point, std::stod(line.substr(b + 1))).second)
      throw std::runtime_error("duplicate expected point: " + point);
  }
  return e;
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

std::string layer_of(const char* span) {
  const std::string s = span;
  if (s == "point") return "point";
  if (s == "cluster.make") return "cluster";
  if (s.rfind("harness.", 0) == 0) return "harness";
  if (s.rfind("apps.bfs.", 0) == 0) return "apps.bfs";
  if (s.rfind("apps.hsg.", 0) == 0) return "apps.hsg";
  return "sim";
}

/// Self time per layer: each span's length minus what its children cover.
void self_times(const std::vector<Span>& spans, std::size_t from,
                std::map<std::string, std::int64_t>& out) {
  std::vector<std::int64_t> child(spans.size() - from, 0);
  for (std::size_t i = from; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= static_cast<int>(from))
      child[static_cast<std::size_t>(s.parent) - from] += s.end_ns - s.start_ns;
  }
  for (std::size_t i = from; i < spans.size(); ++i)
    out[layer_of(spans[i].name)] +=
        spans[i].end_ns - spans[i].start_ns - child[i - from];
}

class Bench {
 public:
  /// `graph_variant` selects the bfs_teps inputs the traced probe uses.
  Bench(std::string workload, const Expected* expected,
        std::uint64_t graph_variant = 0)
      : workload_(std::move(workload)),
        expected_(expected),
        graph_variant_(graph_variant) {}

  Tracer tracer;

  /// Run every point once. `expected == nullptr` skips the expected-value
  /// check (capture mode).
  PassResult pass(const std::vector<Point>& pts, bool traced,
                  std::vector<std::pair<std::string, double>>* values =
                      nullptr) {
    PassResult r;
    r.traced = traced;
    tracer.on = traced;
    const std::size_t first_span = tracer.spans.size();
    const std::int64_t t0 = host_ns();
    for (const Point& p : pts) {
      const std::uint32_t id = next_point_++;
      const int span = tracer.begin("point", id);
      const std::int64_t p0 = host_ns();
      ++r.attempted;
      try {
        trace::MetricsScope scope;
        Ctx ctx(r, tracer, id);
        const double v = p.body(ctx);
        ctx.finish(scope.registry());
        check_value(p.name, v);
        if (values != nullptr) values->emplace_back(p.name, v);
      } catch (const std::exception& e) {
        ++r.failed;
        r.failures.push_back(p.name + ": " + e.what());
      }
      const std::int64_t dt = host_ns() - p0;
      tracer.end(span);
      r.t.points += dt;
      r.t.point_ms.push_back(ms(dt));
    }
    r.t.wall = host_ns() - t0;
    if (traced) {
      self_times(tracer.spans, first_span, r.self_ns);
      if (has_bfs(workload_)) probe_graph(r);
    }
    tracer.on = false;
    return r;
  }

 private:
  void check_value(const std::string& point, double v) const {
    if (!std::isfinite(v) || v <= 0)
      throw PointError(strf("result %g is not finite and positive", v));
    if (expected_ == nullptr) return;
    auto it = expected_->find(point);
    if (it == expected_->end()) throw PointError("no expected value stored");
    if (std::fabs(v - it->second) > kExpectedRelTol * std::fabs(it->second))
      throw PointError(strf("result %.17g differs from expected %.17g", v,
                            it->second));
  }

  /// Traced passes over the BFS points: time the graph builders on their own, on the
  /// same inputs the points use.
  void probe_graph(PassResult& r) {
    alloc::Scope scope(Layer::kProbe);
    const apps::bfs::BfsConfig cfg = bfs_config(graph_variant_);
    const int root = tracer.begin("probe", next_point_);
    const int s1 = tracer.begin("apps.bfs.rmat", next_point_);
    std::int64_t t = host_ns();
    apps::bfs::EdgeList el =
        apps::bfs::rmat(cfg.scale, cfg.edge_factor, cfg.seed);
    r.t.rmat = host_ns() - t;
    tracer.end(s1);
    const int s2 = tracer.begin("apps.bfs.csr", next_point_);
    t = host_ns();
    apps::bfs::Csr g(el);
    r.t.csr = host_ns() - t;
    tracer.end(s2);
    tracer.end(root);
    ++next_point_;
    if (g.num_vertices() != (1ull << cfg.scale))
      throw std::runtime_error("probe graph has the wrong vertex count");
  }

  std::string workload_;
  const Expected* expected_;
  std::uint64_t graph_variant_;
  std::uint32_t next_point_ = 0;
};

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

/// Linear-interpolation quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

template <typename F>
double median_of(const std::vector<const PassResult*>& ps, F&& f) {
  std::vector<double> v;
  for (const PassResult* p : ps) v.push_back(f(*p));
  return quantile(std::move(v), 0.5);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t c = line.find(':');
      if (c != std::string::npos) return line.substr(c + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) o += ch;
  }
  return o;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string expected;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source = "unknown";
};

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"point\":%u,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"events\":%llu}%s\n",
                 i, s.name, s.parent, s.point,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.events),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

/// Run one workload for `o.seconds` and print its metrics. Returns the
/// process exit code.
int run_workload(const Options& o) {
  const Expected expected = load_expected(o.expected);
  const std::vector<Point> pts = make_points(o.workload, o.seed);
  Bench bench(o.workload, &expected, o.seed % kGraphVariants);

  // Untraced runs: every pass untraced. Traced runs alternate untraced and
  // traced passes (U, T, U, ...), so the overhead ratio compares passes made
  // under the same conditions. Another pass starts while it would end closer
  // to --seconds than not.
  const int min_passes = o.trace ? 3 : 2;
  std::vector<PassResult> passes;
  double rss_mb = 0;
  const std::int64_t start = host_ns();
  while (static_cast<int>(passes.size()) < min_passes ||
         static_cast<double>(host_ns() - start + passes.back().t.wall / 2) <
             o.seconds * 1e9) {
    const bool traced = o.trace && passes.size() % 2 == 1;
    passes.push_back(bench.pass(pts, traced));
    // The heap keeps growing slowly with the number of passes, which
    // depends on host speed; the peak over the first two passes does not.
    if (passes.size() == 2) rss_mb = peak_rss_mb();
  }

  std::vector<const PassResult*> plain, traced;
  int attempted = 0, failed = 0;
  std::vector<std::string> failures;
  for (const PassResult& p : passes) {
    (p.traced ? traced : plain).push_back(&p);
    attempted += p.attempted;
    failed += p.failed;
    for (const std::string& f : p.failures) failures.push_back(f);
  }

  // Counts must repeat (see count_diff) among passes of one kind: bus
  // analyzers allocate, so traced passes count more. The first pass of each
  // kind is left out, as it may carry one-time lazy initialisation.
  bool correct = failed == 0;
  for (const auto* group : {&plain, &traced}) {
    for (std::size_t i = 2; i < group->size(); ++i) {
      const std::string diff = count_diff((*group)[i]->c, (*group)[1]->c);
      if (!diff.empty()) {
        correct = false;
        failures.push_back("counts differ between passes:" + diff);
      }
    }
  }

  std::vector<double> point_ms;
  for (const PassResult* p : plain)
    point_ms.insert(point_ms.end(), p->t.point_ms.begin(), p->t.point_ms.end());
  const std::string n_note = strf("n=%zu", point_ms.size());
  const double wall_s =
      median_of(plain, [](const PassResult& p) { return p.t.wall / 1e9; });

  std::vector<Metric> e2e = {
      {"wall_s", wall_s, "s", strf("median of %zu passes", plain.size())},
      {"setup_s",
       median_of(plain, [](const PassResult& p) { return p.t.setup() / 1e9; }),
       "s", "median of passes"},
      {"point_ms_p50", quantile(point_ms, 0.5), "ms", n_note},
      {"point_ms_p90", quantile(point_ms, 0.9), "ms", n_note},
      {"peak_rss_mb", rss_mb, "MB", "peak over the first two passes"},
      {"fail_ratio", ratio(failed, attempted), "ratio",
       strf("%d of %d points", failed, attempted)},
  };

  std::vector<Metric> layer;
  if (o.trace) {
    // Counts from the last untraced pass (never the first, which may carry
    // lazy initialisation); host times of spans from the traced passes.
    const Counts& k = plain.back()->c;
    const Counts& kt = traced.back()->c;
    auto med = [&](std::int64_t Times::*f) {
      return median_of(plain, [f](const PassResult& p) { return ms(p.t.*f); });
    };
    auto tmed = [&](auto f) { return median_of(traced, f); };
    const double run_s = med(&Times::run) / 1e3;
    const double tx = static_cast<double>(k.tx_packets);
    layer = {
        {"sim.events", static_cast<double>(k.events), "count", ""},
        {"sim.events_per_s", ratio(static_cast<double>(k.events), run_s),
         "1/s", "host time inside run calls"},
        {"sim.dispatch_ms",
         tmed([](const PassResult& p) { return ms(p.t.dispatch); }), "ms",
         "traced"},
        {"sim.pending_peak", static_cast<double>(kt.pending_peak), "count",
         "traced"},
        {"run.allocs", static_cast<double>(k.run_allocs), "count", ""},
        {"run.allocs_per_event",
         ratio(static_cast<double>(k.run_allocs),
               static_cast<double>(k.events)),
         "count", ""},
        {"pcie.tlps", static_cast<double>(kt.tlps), "count",
         "APEnet+ card slots, traced"},
        {"pcie.bytes", static_cast<double>(kt.tlp_bytes), "B", "traced"},
        {"pcie.tlps_per_put",
         ratio(static_cast<double>(kt.put_tlps), static_cast<double>(kt.puts)),
         "count", "harness points, traced"},
        {"gpu.p2p.requests", static_cast<double>(k.p2p_requests), "count", ""},
        {"gpu.p2p.bytes", static_cast<double>(k.p2p_bytes), "B", ""},
        {"gpu.window_switches", static_cast<double>(k.window_switches),
         "count", ""},
        {"gpu.bar1.reads", static_cast<double>(k.bar1_reads), "count", ""},
        {"core.card.tx_packets", tx, "count", ""},
        {"core.card.rx_packets", static_cast<double>(k.rx_packets), "count",
         ""},
        {"core.gpu_tx.requests", static_cast<double>(k.gpu_tx_requests),
         "count", ""},
        {"core.nios.busy_frac",
         ratio(static_cast<double>(k.nios_busy_ps),
               static_cast<double>(k.card_span_ps)),
         "sim_frac", "simulated time"},
        {"core.host_ns_per_packet", ratio(med(&Times::apenet_run) * 1e6, tx),
         "ns", ""},
        {"core.rdma.reg_hit_ratio",
         ratio(static_cast<double>(k.reg_hits),
               static_cast<double>(k.reg_hits + k.reg_misses)),
         "ratio", ""},
        {"minimpi.host_ns_per_msg",
         ratio(med(&Times::mpi_run) * 1e6, static_cast<double>(k.mpi_msgs)),
         "ns", "ib_* harness calls"},
        {"cluster.build_ms", med(&Times::cluster), "ms", ""},
        {"cluster.build_allocs", static_cast<double>(k.cluster_allocs),
         "count", ""},
        {"apps.bfs.graph_ms", med(&Times::bfs_graph), "ms", ""},
        {"apps.bfs.run_ms", med(&Times::bfs_run), "ms", ""},
        {"apps.bfs.rmat_ms",
         tmed([](const PassResult& p) { return ms(p.t.rmat); }), "ms",
         "traced"},
        {"apps.bfs.csr_ms",
         tmed([](const PassResult& p) { return ms(p.t.csr); }), "ms",
         "traced"},
        {"apps.bfs.outside_sim_ms",
         tmed([](const PassResult& p) {
           return ms(p.t.bfs_run - p.t.bfs_dispatch);
         }),
         "ms", "traced"},
        {"apps.hsg.build_ms", med(&Times::hsg_build), "ms", ""},
        {"apps.hsg.run_ms", med(&Times::hsg_run), "ms", ""},
        {"apps.hsg.outside_sim_ms",
         tmed([](const PassResult& p) {
           return ms(p.t.hsg_run - p.t.hsg_dispatch);
         }),
         "ms", "traced"},
        {"exp.overhead_ms",
         median_of(plain,
                   [](const PassResult& p) { return ms(p.t.wall - p.t.points); }),
         "ms", ""},
    };
    for (const char* l :
         {"point", "cluster", "harness", "apps.bfs", "apps.hsg", "sim"}) {
      const std::string key = l;
      layer.push_back({"self_ms." + key, tmed([&](const PassResult& p) {
                         auto it = p.self_ns.find(key);
                         return it == p.self_ns.end() ? 0.0 : ms(it->second);
                       }),
                       "ms", "traced"});
    }
    layer.push_back(
        {"trace.overhead",
         ratio(tmed([](const PassResult& p) { return p.t.wall / 1e9; }),
               wall_s),
         "x", "traced wall_s / untraced wall_s"});
    layer.push_back(e2e.back());  // fail_ratio
    if (!o.trace_out.empty()) write_spans(o.trace_out, bench.tracer.spans);
  }

  std::printf("perfbench workload=%s seed=%llu trace=%d passes=%zu "
              "points/pass=%zu\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0, passes.size(), pts.size());
  std::printf(
      "stamp {\"commit\":\"%s\",\"source\":\"%s\",\"cpu\":\"%s\","
      "\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"hw_profile\":\"%s\",\"seed\":%llu}\n",
      json_escape(o.commit).c_str(), json_escape(o.source).c_str(),
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, hw::active().name.c_str(),
      static_cast<unsigned long long>(o.seed));
  for (std::size_t i = 0; i < passes.size(); ++i)
    std::printf("pass %zu %s wall_s=%.4f setup_s=%.4f\n", i,
                passes[i].traced ? "traced  " : "untraced",
                passes[i].t.wall / 1e9, passes[i].t.setup() / 1e9);
  for (const std::string& f : failures) std::printf("FAIL %s\n", f.c_str());
  for (const auto* group : {&e2e, &layer})
    for (const Metric& m : *group)
      std::printf("metric %-26s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());

  // Last line: the JSON result. Untraced runs report the end-to-end
  // metrics (fail_ratio travels as failed/attempted, since it is 0 on a
  // healthy run), traced runs the per-layer ones.
  std::vector<Metric> out;
  if (o.trace) out = layer;
  else out.assign(e2e.begin(), e2e.end() - 1);
  std::string json = strf("{\"correct\": %s, \"attempted\": %d, "
                          "\"failed\": %d, \"metrics\": {",
                          correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < out.size(); ++i)
    json += strf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                 out[i].unit.c_str());
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Capture and self-test
// ---------------------------------------------------------------------------

/// Print the expected-value table: one pass of every workload in kWorkloads
/// (every graph variant of bfs_teps), with all checks except the expected
/// value.
int capture_expected() {
  std::printf("# perfbench expected simulated values: workload<TAB>point"
              "<TAB>value\n");
  for (const char* w : kWorkloads) {
    const std::uint64_t variants =
        std::string(w) == "bfs_teps" ? kGraphVariants : 1;
    for (std::uint64_t v = 0; v < variants; ++v) {
      std::vector<Point> pts = make_points(w, v);
      Bench bench(w, nullptr);
      std::vector<std::pair<std::string, double>> values;
      PassResult r = bench.pass(pts, false, &values);
      for (const std::string& f : r.failures)
        std::fprintf(stderr, "FAIL %s/%s\n", w, f.c_str());
      if (r.failed != 0) return 1;
      std::sort(values.begin(), values.end());
      for (const auto& [name, value] : values)
        std::printf("%s\t%s\t%.17g\n", w, name.c_str(), value);
    }
  }
  return 0;
}

int self_test(const std::string& expected_path) {
  const Expected expected = load_expected(expected_path);
  int bad = 0;
  auto expect = [&bad](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++bad;
  };

  // 1. A point that silently drains (zero prefetch window) is counted as
  //    failed, not reported as 0 MB/s. It has no stored expected value, so
  //    that check is off here: the drain checks alone must catch it.
  {
    Bench b("p2p_bandwidth", nullptr);
    PassResult r = b.pass({known_bad_point()}, false);
    expect(r.attempted == 1 && r.failed == 1,
           "zero prefetch window point counted as failed");
    for (const std::string& f : r.failures) std::printf("     %s\n", f.c_str());
  }

  // 2. Allocation and event counts repeat exactly across passes.
  {
    const auto pts = make_points("small_msg_latency", 1);
    Bench b("small_msg_latency", &expected);
    b.pass(pts, false);  // lazy initialisation
    PassResult r1 = b.pass(pts, false);
    PassResult r2 = b.pass(pts, false);
    expect(r1.failed == 0 && r2.failed == 0, "small_msg_latency passes");
    const std::string diff = count_diff(r1.c, r2.c);
    expect(diff.empty() && r1.c.run_allocs > 0 && r1.c.cluster_allocs > 0,
           strf("allocation and event counts repeat (run allocs %llu, "
                "cluster allocs %llu)%s",
                static_cast<unsigned long long>(r1.c.run_allocs),
                static_cast<unsigned long long>(r1.c.cluster_allocs),
                diff.c_str()));
  }

  // 3. The seed only reorders points: every count is identical under two
  //    seeds. On bfs_teps it changes the graph and nothing fails.
  for (const char* w : {"p2p_bandwidth", "hsg_scaling"}) {
    Bench b(w, &expected);
    b.pass(make_points(w, 1), false);  // lazy initialisation
    PassResult r1 = b.pass(make_points(w, 1), false);
    PassResult r2 = b.pass(make_points(w, 2), false);
    const std::string diff = count_diff(r1.c, r2.c);
    expect(r1.failed == 0 && r2.failed == 0 && diff.empty(),
           strf("%s counts identical under seeds 1 and 2%s", w, diff.c_str()));
  }
  {
    Bench b1("bfs_teps", &expected), b2("bfs_teps", &expected);
    PassResult r1 = b1.pass(make_points("bfs_teps", 1), false);
    PassResult r2 = b2.pass(make_points("bfs_teps", 2), false);
    for (const std::string& f : r1.failures) std::printf("     %s\n", f.c_str());
    for (const std::string& f : r2.failures) std::printf("     %s\n", f.c_str());
    expect(r1.failed == 0 && r2.failed == 0,
           "bfs_teps passes under seeds 1 and 2");
    expect(r1.c.events != r2.c.events, "bfs_teps seed changes the graph");
  }

  // 4. `apps` runs exactly the points of bfs_teps and hsg_scaling.
  {
    auto names = [](const std::vector<Point>& pts) {
      std::vector<std::string> v;
      for (const Point& p : pts) v.push_back(p.name);
      std::sort(v.begin(), v.end());
      return v;
    };
    std::vector<Point> both = make_points("bfs_teps", 3);
    for (Point& p : make_points("hsg_scaling", 3)) both.push_back(std::move(p));
    expect(names(make_points("apps", 3)) == names(both),
           "apps = bfs_teps + hsg_scaling points");
  }
  std::printf("%s\n", bad == 0 ? "self-test passed" : "self-test FAILED");
  return bad == 0 ? 0 : 1;
}

/// Address-space layout randomisation moves the heap and the mmap area on
/// every run, and the simulator's host speed depends on where its buffers
/// land: pass times within one process spread over 1.8x with it, a few
/// percent without. The driver re-executes itself once with randomisation
/// off so that every run measures the same layout. Where the kernel refuses,
/// it runs on with the randomised layout.
void fix_address_layout(char** argv) {
  const int pers = personality(0xffffffff);
  if (pers == -1 || (pers & ADDR_NO_RANDOMIZE) != 0) return;
  if (personality(static_cast<unsigned long>(pers) | ADDR_NO_RANDOMIZE) == -1)
    return;
  execv("/proc/self/exe", argv);
}

int usage() {
  std::fprintf(stderr,
               "usage: apn_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --expected FILE [--trace-out FILE] "
               "[--commit C] [--source S]\n"
               "       apn_perfbench --self-test --expected FILE\n"
               "       apn_perfbench --capture-expected\n"
               "workloads: p2p_bandwidth small_msg_latency bfs_teps "
               "hsg_scaling apps\n");
  return 2;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  fix_address_layout(argv);
  Options o;
  bool self = false, capture = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = value() != "0";
      else if (a == "--expected") o.expected = value();
      else if (a == "--trace-out") o.trace_out = value();
      else if (a == "--commit") o.commit = value();
      else if (a == "--source") o.source = value();
      else if (a == "--self-test") self = true;
      else if (a == "--capture-expected") capture = true;
      else return usage();
    }
    if (capture) return capture_expected();
    if (o.expected.empty()) return usage();
    if (self) return self_test(o.expected);
    if (o.workload.empty()) return usage();
    return run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apn_perfbench: %s\n", e.what());
    return 2;
  }
}

// One system-under-test process: a DISCOVER server with product defaults
// (ServerConfig{} apart from its name), the steerable applications or the
// front server's anchor application, and a bench control node the
// generator uses to read the server's own instruments at window edges.
#include <sys/prctl.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "app/synthetic.h"
#include "bench.h"
#include "core/server.h"
#include "net/os_network.h"
#include "workload/scenario.h"

namespace perfbench {

namespace {

std::atomic<bool> g_stop{false};
void on_signal(int) { g_stop.store(true); }

/// utime+stime of this process in seconds (/proc/self/stat fields 14-15).
double proc_cpu_seconds() {
  std::ifstream in("/proc/self/stat");
  std::string line;
  std::getline(in, line);
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && (rest >> field); ++i) {
    if (i == 14 || i == 15) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// A /proc/self/status field in kB (VmHWM, VmRSS).
std::int64_t proc_status_kb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtoll(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

std::string server_snapshot(const core::DiscoverServer& server,
                            const net::OsNetwork& os) {
  const core::ServerStats st = server.stats_sum();
  const util::MetricsRegistry::Snapshot snap = server.metrics().snapshot();
  JsonObj stats;
  stats.num("polls_served", st.polls_served)
      .num("events_delivered", st.events_delivered)
      .num("events_dropped", st.events_dropped)
      .num("resync_markers", st.resync_markers)
      .num("peak_fifo_backlog_bytes", st.peak_fifo_backlog_bytes)
      .num("commands_accepted", st.commands_accepted)
      .num("commands_buffered", st.commands_buffered)
      .num("collab_posts", st.collab_posts)
      .num("updates_processed", st.updates_processed)
      .num("responses_processed", st.responses_processed)
      .num("peer_events_in", st.peer_events_in)
      .num("peer_events_out", st.peer_events_out)
      .num("peer_batches_out", st.peer_batches_out)
      .num("flushes_by_count", st.flushes_by_count)
      .num("flushes_by_bytes", st.flushes_by_bytes)
      .num("flushes_by_timer", st.flushes_by_timer)
      .num("outbox_dropped", st.outbox_dropped)
      .num("remote_commands_out", st.remote_commands_out);
  JsonObj hists;
  for (const auto& [name, h] : snap.histograms) hists.raw(name, hist_json(h));
  JsonObj gauges;
  for (const auto& [name, v] : snap.gauges) gauges.num(name, v);
  const net::OsNetworkStats o = os.os_stats();
  JsonObj osj;
  osj.num("frames_in", o.frames_in)
      .num("frames_out", o.frames_out)
      .num("bytes_in", o.bytes_in)
      .num("bytes_out", o.bytes_out)
      .num("partial_writes", o.partial_writes)
      .num("eagain_writes", o.eagain_writes)
      .num("drops", o.dropped_no_route + o.dropped_overflow +
                        o.dropped_reconnect_exhausted)
      .num("protocol_errors", o.protocol_errors);
  return JsonObj()
      .raw("stats", stats.done())
      .raw("hist", hists.done())
      .raw("gauges", gauges.done())
      .raw("os", osj.done())
      .num("peers", static_cast<std::uint64_t>(server.peer_count()))
      .num("apps", static_cast<std::uint64_t>(server.local_app_count()))
      .num("cpu_s", proc_cpu_seconds())
      .num("rss_hwm_kb", proc_status_kb("VmHWM"))
      .num("mono_ns", mono_ns())
      .done();
}

/// Bench control node.  Control-channel payloads start with an op byte:
///  'E' echo the payload back (transport floor),
///  'Q' status (peers, local apps),
///  'A' window-start snapshot (also clears the traced layer statistics),
///  'Z' window-end snapshot.
/// Server state is read on the server's own worker, where it is quiescent.
class Ctl final : public net::MessageHandler {
 public:
  Ctl(net::OsNetwork& os, core::DiscoverServer& server, LayerStats* layers)
      : os_(os), server_(server), layers_(layers) {}
  void attach(net::NodeId self) { self_ = self; }

  void on_message(const net::Message& msg) override {
    if (msg.channel != net::Channel::control || msg.payload.empty()) return;
    const char op = static_cast<char>(msg.payload.bytes()[0]);
    const net::NodeId to = msg.src;
    if (op == 'E') {
      os_.send(self_, to, net::Channel::control, msg.payload);
      return;
    }
    os_.post(server_.node(), [this, op, to] {
      std::string body;
      if (op == 'Q') {
        body = JsonObj()
                   .num("peers", static_cast<std::uint64_t>(
                                     server_.peer_count()))
                   .num("apps", static_cast<std::uint64_t>(
                                    server_.local_app_count()))
                   .num("cpu_s", proc_cpu_seconds())
                   .done();
      } else {
        body = server_snapshot(server_, os_);
        if (layers_ != nullptr) {
          body.pop_back();
          body += ",\"layers\":" + layers_->json() + "}";
          if (op == 'A') layers_->clear();
        }
      }
      util::Bytes out;
      out.push_back(static_cast<std::uint8_t>(op));
      out.insert(out.end(), body.begin(), body.end());
      os_.send(self_, to, net::Channel::control, std::move(out));
    });
  }

 private:
  net::OsNetwork& os_;
  core::DiscoverServer& server_;
  LayerStats* layers_;
  net::NodeId self_{0};
};

std::vector<security::AclEntry> bench_acl(const Params& p) {
  // Session users u<i> watch; each app's steering user s<app> holds its lock.
  std::vector<security::AclEntry> acl;
  const auto add = [&acl](char prefix, std::int64_t i, security::Privilege p) {
    std::string user(1, prefix);
    user += std::to_string(i);
    acl.push_back({std::move(user), p, 0});
  };
  for (std::int64_t u = 0; u < p.num("users"); ++u) {
    add('u', u, security::Privilege::read_only);
  }
  for (std::int64_t a = 0; a < p.num("apps"); ++a) {
    add('s', a, security::Privilege::steer);
  }
  return acl;
}

}  // namespace

int sut_main(const Params& p) {
  // Exit with the launching run.py, even if it is killed outright.
  prctl(PR_SET_PDEATHSIG, SIGTERM);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  const int proc = static_cast<int>(p.num("proc"));
  const std::vector<double> ports = p.list("ports");
  const bool traced = p.num("trace") != 0;
  const std::vector<NodeSpec> topo = topology(p);

  net::OsNetwork os;
  SpanLog spans(400000);
  LayerStats layers;
  TracingNetwork tnet(os, spans, layers);
  net::Network& n = traced ? static_cast<net::Network&>(tnet) : os;
  const auto add = [&](const NodeSpec& spec, net::MessageHandler* h,
                       const char* role) {
    const net::DomainId dom{static_cast<std::uint32_t>(spec.proc + 1)};
    return traced ? tnet.add_traced(spec.name, h, dom, role)
                  : os.add_node(spec.name, h, dom);
  };

  core::ServerConfig scfg;
  scfg.name = "server" + std::to_string(proc);
  auto server = std::make_unique<core::DiscoverServer>(n, scfg);
  auto ctl = std::make_unique<Ctl>(os, *server, traced ? &layers : nullptr);
  std::unique_ptr<workload::RegistryNode> registry;
  std::vector<std::unique_ptr<app::SyntheticApp>> apps;
  std::vector<net::NodeId> app_nodes;
  net::NodeId server_node{0};
  int registry_idx = -1;

  for (std::size_t i = 0; i < topo.size(); ++i) {
    const NodeSpec& spec = topo[i];
    if (spec.role == Role::registry) registry_idx = static_cast<int>(i);
    if (spec.proc != proc) {
      const std::uint16_t port =
          spec.proc >= 0 && spec.proc < proc
              ? static_cast<std::uint16_t>(ports.at(
                    static_cast<std::size_t>(spec.proc)))
              : 0;  // started after us: its connection reaches us first
      os.add_remote(spec.name, "127.0.0.1", port,
                    net::DomainId{static_cast<std::uint32_t>(spec.proc + 1)});
      continue;
    }
    switch (spec.role) {
      case Role::registry:
        registry = std::make_unique<workload::RegistryNode>(os);
        registry->attach(os.add_node(spec.name, registry.get()));
        break;
      case Role::server:
        server_node = add(spec, server.get(), "server");
        server->attach(server_node);
        break;
      case Role::ctl:
        ctl->attach(os.add_node(spec.name, ctl.get(),
                                net::DomainId{static_cast<std::uint32_t>(
                                    spec.proc + 1)}));
        break;
      case Role::app:
      case Role::anchor: {
        app::AppConfig acfg;
        acfg.name = spec.name;
        acfg.acl = bench_acl(p);
        if (spec.role == Role::app) {
          acfg.step_time = p.num("app_step_us", 1000) * util::kMicrosecond;
          acfg.update_every =
              static_cast<std::uint32_t>(p.num("app_update_every", 2));
          acfg.interact_every = 1;
          acfg.interaction_window =
              p.num("app_window_us", 49000) * util::kMicrosecond;
        } else {
          // Lets sessions authenticate at the front server; never publishes.
          acfg.step_time = util::milliseconds(100);
          acfg.update_every = 0;
          acfg.interact_every = 0;
        }
        apps.push_back(std::make_unique<app::SyntheticApp>(
            n, acfg, app::SyntheticSpec{}));
        app_nodes.push_back(add(spec, apps.back().get(), "app"));
        apps.back()->attach(app_nodes.back());
        break;
      }
      case Role::gen:
        break;
    }
  }
  if (registry_idx >= 0) {
    // The registry's references are deterministic (first two activations
    // of a fresh Orb on its node), so a remote process can rebuild them.
    workload::RegistryNode shadow(os);
    shadow.attach(net::NodeId{static_cast<std::uint32_t>(registry_idx)});
    const auto& reg = registry ? *registry : shadow;
    server->set_registry(reg.naming_ref(), reg.trader_ref());
  }

  const util::Status st = os.start();
  if (!st.ok()) {
    std::fprintf(stderr, "sut: %s\n", st.error().message.c_str());
    return 1;
  }
  std::printf("PORT %u\n", os.listen_port());
  std::fflush(stdout);
  os.post(server_node, [&] { server->start(); });
  for (std::size_t a = 0; a < apps.size(); ++a) {
    app::SyntheticApp* ap = apps[a].get();
    os.post(app_nodes[a], [ap, server_node] { ap->connect(server_node); });
  }
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  os.stop();
  server->drain_shards();
  if (traced && p.has("trace_out") &&
      !spans.write_chrome(p.str("trace_out"), static_cast<int>(getpid()),
                          scfg.name)) {
    std::fprintf(stderr, "sut: cannot write %s\n", p.str("trace_out").c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench

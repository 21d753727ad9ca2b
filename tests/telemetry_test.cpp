// Telemetry plane tests: flight-recorder ring semantics (wraparound,
// tie ordering, byte-identical dumps), metrics registry + sampler
// determinism, trace-query reconstruction, and the two hard runtime
// contracts — tracing-on steady state allocates nothing, and a
// telemetry-enabled run's simulation outcome matches a telemetry-off run.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/testbed.h"
#include "src/net/five_tuple.h"
#include "src/sim/event_loop.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/hub.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace_query.h"
#include "src/vswitch/vswitch.h"
#include "support/alloc_hook.h"

namespace nezha::telemetry {
namespace {

using common::milliseconds;
using common::seconds;

TraceEvent make_event(std::uint32_t node, common::TimePoint at,
                      EventKind kind, std::uint64_t flow = 0) {
  TraceEvent e;
  e.node = node;
  e.at = at;
  e.kind = kind;
  e.flow = flow;
  return e;
}

// ---------------------------------------------------------------- recorder

TEST(FlightRecorderTest, WraparoundKeepsNewestEventsPerNode) {
  FlightRecorder rec(/*num_nodes=*/2, /*events_per_node=*/4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent e = make_event(0, i, EventKind::kPktEnqueue);
    e.a = static_cast<std::uint64_t>(i);
    rec.record(e);
  }
  rec.record(make_event(1, 100, EventKind::kPktDeliver));

  EXPECT_EQ(rec.ring_count(0), 4u);
  EXPECT_EQ(rec.ring_overwritten(0), 6u);
  EXPECT_EQ(rec.ring_count(1), 1u);
  EXPECT_EQ(rec.recorded(), 11u);

  // Node 0 retains exactly its 4 newest events, oldest-first in the merge.
  const auto events = rec.merged();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].a, static_cast<std::uint64_t>(6 + i));
  }
  EXPECT_EQ(events[4].node, 1u);
}

TEST(FlightRecorderTest, ChattyNodeCannotEvictQuietNodesHistory) {
  FlightRecorder rec(/*num_nodes=*/2, /*events_per_node=*/8);
  rec.record(make_event(1, 0, EventKind::kProbeSent));
  for (int i = 0; i < 10000; ++i) {
    rec.record(make_event(0, i, EventKind::kPktEnqueue));
  }
  EXPECT_EQ(rec.ring_count(1), 1u);  // survived the flood
  EXPECT_EQ(rec.ring_overwritten(1), 0u);
}

TEST(FlightRecorderTest, SpilloverRingCatchesOutOfRangeNodes) {
  FlightRecorder rec(/*num_nodes=*/2, /*events_per_node=*/4);
  rec.record(make_event(77, 0, EventKind::kCtrlScaleIn));
  EXPECT_EQ(rec.ring_count(2), 1u);  // index num_nodes = spillover
  ASSERT_EQ(rec.merged().size(), 1u);
  EXPECT_EQ(rec.merged()[0].node, 77u);
}

TEST(FlightRecorderTest, SameTimestampEventsKeepRecordOrder) {
  // Three nodes record at the identical sim time; the merge must order by
  // the global record sequence, not by node or ring position.
  FlightRecorder rec(/*num_nodes=*/3, /*events_per_node=*/4);
  rec.record(make_event(2, 5, EventKind::kPktEnqueue, 0xaa));
  rec.record(make_event(0, 5, EventKind::kPktDeliver, 0xbb));
  rec.record(make_event(1, 5, EventKind::kVmDeliver, 0xcc));
  const auto events = rec.merged();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].flow, 0xaau);
  EXPECT_EQ(events[1].flow, 0xbbu);
  EXPECT_EQ(events[2].flow, 0xccu);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
}

TEST(FlightRecorderTest, IdenticalRunsDumpByteIdentically) {
  auto fill = [](FlightRecorder& rec) {
    for (int i = 0; i < 100; ++i) {
      TraceEvent e = make_event(i % 3, i * 10, EventKind::kCpuOpStart,
                                0x1234u + i);
      e.detail = static_cast<std::uint8_t>(Stage::kBeTx);
      rec.record(e);
    }
  };
  FlightRecorder a(3, 32), b(3, 32);
  fill(a);
  fill(b);
  std::ostringstream da, db;
  a.dump(da);
  b.dump(db);
  EXPECT_FALSE(da.str().empty());
  EXPECT_EQ(da.str(), db.str());
}

TEST(FlightRecorderTest, DumpRoundTripsThroughLoadTrace) {
  FlightRecorder rec(2, 8);
  rec.record(make_event(0, 7, EventKind::kTableMiss, 0xf00));
  rec.record(make_event(1, 9, EventKind::kVmDeliver, 0xf00));
  std::stringstream ss;
  rec.dump(ss);
  auto loaded = load_trace(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  const auto& events = loaded.value();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kTableMiss);
  EXPECT_EQ(events[0].at, 7);
  EXPECT_EQ(events[1].kind, EventKind::kVmDeliver);
}

TEST(FlightRecorderTest, LoadTraceRejectsCorruptHeader) {
  std::stringstream ss;
  ss << "not a trace dump at all";
  EXPECT_FALSE(load_trace(ss).ok());
}

// ----------------------------------------------------------------- metrics

TEST(MetricsRegistryTest, RegistrationIsIdempotentByName) {
  MetricsRegistry m;
  const auto c1 = m.counter("x");
  const auto c2 = m.counter("x");
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(m.counter_count(), 1u);
  m.add(c1, 3);
  m.add(c2, 4);
  EXPECT_EQ(m.counter_value(c1), 7u);
  EXPECT_EQ(m.find_counter("x"), c1);
  EXPECT_EQ(m.find_counter("nope"), MetricsRegistry::kInvalidId);
}

TEST(MetricsRegistryTest, SamplerRecordsDeterministicSeries) {
  auto run_once = [](std::string* json) {
    sim::EventLoop loop;
    MetricsRegistry m;
    const auto c = m.counter("pkts");
    double g_value = 0.0;
    m.gauge("depth", [&g_value] { return g_value; });
    const auto h = m.histogram("lat_us", 0.0, 100.0, 10);
    m.start_sampler(loop, milliseconds(10), /*max_samples=*/64);
    loop.schedule_periodic(milliseconds(3), [&] {
      m.add(c);
      g_value += 1.5;
      m.observe(h, 42.0);
    });
    loop.run_until(milliseconds(100));
    m.stop_sampler();
    std::ostringstream os;
    m.write_json(os);
    *json = os.str();
    return m.samples_taken();
  };
  std::string j1, j2;
  const std::size_t n1 = run_once(&j1);
  const std::size_t n2 = run_once(&j2);
  EXPECT_EQ(n1, 10u);
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(j1, j2) << "sampler JSON must be byte-identical across runs";
  EXPECT_NE(j1.find("\"schema\": \"nezha-telemetry-v1\""), std::string::npos);
  EXPECT_NE(j1.find("c:pkts"), std::string::npos);
  EXPECT_NE(j1.find("g:depth"), std::string::npos);
  EXPECT_NE(j1.find("lat_us"), std::string::npos);
}

TEST(MetricsRegistryTest, TicksBeyondCapacityAreDroppedNotGrown) {
  sim::EventLoop loop;
  MetricsRegistry m;
  m.counter("c");
  m.start_sampler(loop, milliseconds(1), /*max_samples=*/5);
  loop.run_until(milliseconds(20));
  m.stop_sampler();
  EXPECT_EQ(m.samples_taken(), 5u);
  EXPECT_EQ(m.dropped_ticks(), 15u);
}

TEST(MetricsRegistryTest, HistogramReadsAndJson) {
  MetricsRegistry m;
  // [0, 100) in 10-wide buckets. -5 underflows and 150 overflows; the
  // others land in buckets 1 (12, 18) and 3 (35).
  const auto h = m.histogram("lat_us", 0.0, 100.0, 10);
  for (double x : {12.0, -5.0, 35.0, 150.0, 18.0}) m.observe(h, x);
  const auto idle = m.histogram("idle", 0.0, 10.0, 2);
  // Both samples in bucket 1 ([10, 20)): interpolation spreads them over
  // the whole bucket, and the exact [12, 14] clamps it.
  const auto narrow = m.histogram("narrow_us", 0.0, 100.0, 10);
  m.observe(narrow, 14.0);
  m.observe(narrow, 12.0);

  EXPECT_EQ(m.hist_count(h), 5u);
  EXPECT_DOUBLE_EQ(m.hist_mean(h), 42.0);  // 210 / 5
  EXPECT_DOUBLE_EQ(m.hist_quantile(h, 0.0), -5.0);    // exact min
  EXPECT_DOUBLE_EQ(m.hist_quantile(h, 50.0), 17.5);   // 10 + 0.75 * 10
  EXPECT_DOUBLE_EQ(m.hist_quantile(h, 99.0), 100.0);  // overflow maps to hi
  EXPECT_DOUBLE_EQ(m.hist_quantile(h, 100.0), 150.0);  // exact max

  EXPECT_EQ(m.hist_count(narrow), 2u);
  EXPECT_DOUBLE_EQ(m.hist_mean(narrow), 13.0);
  EXPECT_DOUBLE_EQ(m.hist_quantile(narrow, 0.0), 12.0);
  EXPECT_DOUBLE_EQ(m.hist_quantile(narrow, 1.0), 12.0);   // 10.1 clamped up
  EXPECT_DOUBLE_EQ(m.hist_quantile(narrow, 50.0), 14.0);  // 15 clamped down
  EXPECT_DOUBLE_EQ(m.hist_quantile(narrow, 99.0), 14.0);  // 19.9 clamped
  EXPECT_DOUBLE_EQ(m.hist_quantile(narrow, 100.0), 14.0);

  EXPECT_EQ(m.hist_count(idle), 0u);
  EXPECT_EQ(m.hist_mean(idle), 0.0);
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(m.hist_quantile(idle, p), 0.0) << p;
  }

  std::ostringstream os;
  m.write_json(os);
  const std::string json = os.str();
  const std::size_t at = json.find("  \"histograms\"");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(json.substr(at),
            "  \"histograms\": {\n"
            "    \"lat_us\": {\"lo\": 0, \"hi\": 100, \"count\": 5, "
            "\"underflow\": 1, \"overflow\": 1,\n"
            "      \"buckets\": [0, 2, 0, 1, 0, 0, 0, 0, 0, 0],\n"
            "      \"mean\": 42, \"min\": -5, \"max\": 150, \"p50\": 17.5, "
            "\"p90\": 100, \"p99\": 100, \"p999\": 100},\n"
            "    \"idle\": {\"lo\": 0, \"hi\": 10, \"count\": 0, "
            "\"underflow\": 0, \"overflow\": 0,\n"
            "      \"buckets\": [0, 0],\n"
            "      \"mean\": 0, \"min\": 0, \"max\": 0, \"p50\": 0, "
            "\"p90\": 0, \"p99\": 0, \"p999\": 0},\n"
            "    \"narrow_us\": {\"lo\": 0, \"hi\": 100, \"count\": 2, "
            "\"underflow\": 0, \"overflow\": 0,\n"
            "      \"buckets\": [0, 2, 0, 0, 0, 0, 0, 0, 0, 0],\n"
            "      \"mean\": 13, \"min\": 12, \"max\": 14, \"p50\": 14, "
            "\"p90\": 14, \"p99\": 14, \"p999\": 14}\n"
            "  }\n"
            "}\n");
}

// -------------------------------------------------------------- trace query

TEST(TraceQueryTest, SlowestSetupsRanksByLatency) {
  std::vector<TraceEvent> events;
  auto miss = [&](std::uint64_t flow, common::TimePoint at) {
    events.push_back(make_event(0, at, EventKind::kTableMiss, flow));
  };
  auto deliver = [&](std::uint64_t flow, common::TimePoint at) {
    events.push_back(make_event(1, at, EventKind::kVmDeliver, flow));
  };
  miss(0xa, 100);
  deliver(0xa, 400);   // 300ns setup
  miss(0xb, 100);
  deliver(0xb, 150);   // 50ns setup
  miss(0xc, 200);
  deliver(0xc, 900);   // 700ns setup
  miss(0xd, 100);      // never delivered: excluded
  for (std::size_t i = 0; i < events.size(); ++i) events[i].seq = i + 1;

  const auto top = slowest_setups(events, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].flow, 0xcu);
  EXPECT_EQ(top[0].latency(), 700);
  EXPECT_EQ(top[1].flow, 0xau);
  EXPECT_EQ(top[1].latency(), 300);
}

TEST(TraceQueryTest, AuditFlagsIllegalAndDiscontinuousTransitions) {
  std::vector<TraceEvent> events;
  auto mode = [&](std::uint32_t node, std::uint64_t vnic, std::uint8_t from,
                  std::uint8_t to, common::TimePoint at) {
    TraceEvent e = make_event(node, at, EventKind::kVnicMode);
    e.a = vnic;
    e.detail = pack_mode_transition(from, to);
    events.push_back(e);
  };
  mode(3, 1, 0, 1, 10);  // local -> dual: legal
  mode(3, 1, 1, 2, 20);  // dual -> offloaded: legal
  mode(3, 1, 2, 0, 30);  // offloaded -> local: ILLEGAL edge (skips fallback)
  mode(3, 2, 0, 1, 40);  // second vnic, legal
  mode(3, 2, 2, 3, 50);  // edge legal but discontinuous (prev state was 1)
  mode(9, 1, 3, 3, 60);  // other node: not in this audit
  for (std::size_t i = 0; i < events.size(); ++i) events[i].seq = i + 1;

  const auto steps = audit_vswitch(events, 3);
  ASSERT_EQ(steps.size(), 5u);
  EXPECT_TRUE(steps[0].legal);
  EXPECT_TRUE(steps[1].legal);
  EXPECT_FALSE(steps[2].legal);
  EXPECT_TRUE(steps[3].legal);
  EXPECT_FALSE(steps[4].legal);
}

TEST(TraceQueryTest, PathCheckRequiresAllFourLegs) {
  const std::uint64_t flow = 0xdeadbeef;
  std::vector<TraceEvent> events;
  auto push = [&](std::uint32_t node, EventKind kind, Stage stage) {
    TraceEvent e = make_event(node, 0, EventKind::kPktEnqueue, flow);
    e.kind = kind;
    e.detail = static_cast<std::uint8_t>(stage);
    e.seq = events.size() + 1;
    events.push_back(e);
  };
  push(5, EventKind::kCpuOpStart, Stage::kBeTx);      // BE charges CPU
  push(5, EventKind::kBeFeRedirect, Stage::kBeTx);    // BE picks the FE
  push(9, EventKind::kCpuOpStart, Stage::kFeTx);      // FE forwards
  EXPECT_FALSE(check_be_fe_peer_path(events, flow).complete());

  push(2, EventKind::kVmDeliver, Stage::kFeTx);       // peer VM delivery
  const auto check = check_be_fe_peer_path(events, flow);
  EXPECT_TRUE(check.complete());
  EXPECT_EQ(check.be_node, 5u);
  EXPECT_EQ(check.fe_node, 9u);
  EXPECT_EQ(check.peer_node, 2u);
  EXPECT_EQ(check.timeline.size(), 4u);
}

// ------------------------------------------------- integration (testbed)

core::TestbedConfig telemetry_testbed_config() {
  core::TestbedConfig cfg;
  cfg.num_vswitches = 8;
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  // Keep gateway-map refreshes (which may allocate) out of measurement
  // windows, mirroring the alloc-regression suite.
  cfg.vswitch.learning_interval = seconds(100000);
  cfg.telemetry.enabled = true;
  cfg.telemetry.events_per_node = 1 << 12;
  cfg.telemetry.sample_period = milliseconds(50);
  return cfg;
}

constexpr std::uint32_t kVpc = 5;
constexpr tables::VnicId kClientVnic = 1;
constexpr tables::VnicId kServerVnic = 2;
// The client lives on the highest-id vSwitch: the controller picks FEs by
// ascending id among idle switches, so the FE pool for the server (home 1)
// is {0, 2, 3, 4} and never collides with the client's host — the peer
// delivery genuinely happens at a third node.
constexpr std::size_t kClientHost = 7;
constexpr std::size_t kServerHost = 1;

class TelemetryIntegrationTest : public ::testing::Test {
 protected:
  explicit TelemetryIntegrationTest(
      core::TestbedConfig cfg = telemetry_testbed_config())
      : bed_(cfg) {
    client_ip_ = net::Ipv4Addr(10, 0, 0, 1);
    server_ip_ = net::Ipv4Addr(10, 0, 0, 2);
    vswitch::VnicConfig client;
    client.id = kClientVnic;
    client.addr = tables::OverlayAddr{kVpc, client_ip_};
    vswitch::VnicConfig server;
    server.id = kServerVnic;
    server.addr = tables::OverlayAddr{kVpc, server_ip_};
    bed_.add_vnic(kClientHost, client);
    bed_.add_vnic(kServerHost, server);
  }

  void offload_server() {
    ASSERT_TRUE(bed_.controller().trigger_offload(kServerVnic).ok());
    bed_.run_for(seconds(4));
    ASSERT_EQ(bed_.vswitch(kServerHost).vnic(kServerVnic)->mode(),
              vswitch::VnicMode::kOffloaded);
  }

  net::FiveTuple flow(std::uint16_t sport) const {
    return net::FiveTuple{client_ip_, server_ip_, sport, 80,
                          net::IpProto::kTcp};
  }

  void pump(std::uint16_t sport, int iterations) {
    const net::FiveTuple ft = flow(sport);
    for (int i = 0; i < iterations; ++i) {
      // created_at feeds the per-hop-class latency histograms (workloads
      // stamp it the same way; it is telemetry metadata, not sim state).
      net::Packet c2s =
          net::make_tcp_packet(ft, net::TcpFlags{.ack = true}, 100, kVpc);
      c2s.created_at = bed_.loop().now();
      bed_.vswitch(kClientHost).from_vm(kClientVnic, std::move(c2s));
      net::Packet s2c = net::make_tcp_packet(
          ft.reversed(), net::TcpFlags{.ack = true}, 100, kVpc);
      s2c.created_at = bed_.loop().now();
      bed_.vswitch(kServerHost).from_vm(kServerVnic, std::move(s2c));
      bed_.run_for(milliseconds(1));
    }
  }

  core::Testbed bed_;
  net::Ipv4Addr client_ip_, server_ip_;
};

TEST_F(TelemetryIntegrationTest, TracingOnSteadyStateAllocatesNothing) {
  offload_server();
  pump(40000, /*iterations=*/256);  // warmup: slabs, tables, rings, rows

  const std::uint64_t delivered_before = bed_.network().delivered();
  const std::uint64_t recorded_before = bed_.telemetry()->recorder().recorded();
  const std::uint64_t allocs_before = support::alloc_counts().news;
  pump(40000, /*iterations=*/1024);
  const std::uint64_t window_allocs =
      support::alloc_counts().news - allocs_before;
  const std::uint64_t window_packets =
      bed_.network().delivered() - delivered_before;
  const std::uint64_t window_events =
      bed_.telemetry()->recorder().recorded() - recorded_before;

  EXPECT_GE(window_packets, 4 * 1024u);
  EXPECT_GT(window_events, window_packets)
      << "tracing-on window recorded implausibly few events";
  EXPECT_EQ(window_allocs, 0u)
      << "telemetry-on steady state allocated " << window_allocs
      << " times over " << window_events << " trace events";
}

TEST_F(TelemetryIntegrationTest, ReconstructsBeFePeerTimeline) {
  offload_server();
  pump(41000, /*iterations=*/8);

  // The server→client direction traverses the detour: BE charges be_tx,
  // redirects to an FE, the FE forwards, the client VM receives.
  const std::uint64_t flow_id =
      net::flow_hash(flow(41000).canonical(), 0);
  const auto events = bed_.telemetry()->recorder().merged();
  const auto check = check_be_fe_peer_path(events, flow_id);
  EXPECT_TRUE(check.complete())
      << "be_tx=" << check.have_be_tx << " redirect=" << check.have_redirect
      << " fe_hop=" << check.have_fe_hop
      << " peer=" << check.have_peer_deliver;
  EXPECT_NE(check.be_node, check.fe_node);
  EXPECT_NE(check.fe_node, check.peer_node);
  EXPECT_FALSE(check.timeline.empty());

  // The same flow also has a measurable first-packet setup.
  const auto slow = slowest_setups(events, 5);
  EXPECT_FALSE(slow.empty());

  // And the offload FSM audit for the server's home vSwitch is clean.
  const auto steps = audit_vswitch(events, /*node=*/1);
  ASSERT_FALSE(steps.empty());
  for (const auto& t : steps) {
    EXPECT_TRUE(t.legal) << "illegal vnic mode step " << unsigned(t.from)
                         << " -> " << unsigned(t.to);
  }
}

TEST_F(TelemetryIntegrationTest, SamplerSeriesAndHistogramsPopulate) {
  offload_server();
  pump(42000, /*iterations=*/64);

  auto& m = bed_.telemetry()->metrics();
  EXPECT_GT(m.samples_taken(), 0u);
  const auto g = m.find_gauge("vs1.sessions");
  ASSERT_NE(g, MetricsRegistry::kInvalidId);
  EXPECT_GT(m.last_sample_gauge(g), 0.0);
  const auto h = m.find_histogram("latency.local_rx_us");
  ASSERT_NE(h, MetricsRegistry::kInvalidId);
  EXPECT_GT(m.hist_count(h), 0u);

  std::ostringstream os;
  bed_.telemetry()->write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("vs1.sessions"), std::string::npos);
  EXPECT_NE(json.find("latency.local_rx_us"), std::string::npos);
}

TEST(TelemetryDeterminismTest, TwoRunsDumpByteIdenticalTraces) {
  auto run_once = [](std::string* trace, std::string* json) {
    core::TestbedConfig cfg = telemetry_testbed_config();
    core::Testbed bed(cfg);
    vswitch::VnicConfig client;
    client.id = kClientVnic;
    client.addr = tables::OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 1)};
    vswitch::VnicConfig server;
    server.id = kServerVnic;
    server.addr = tables::OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 2)};
    bed.add_vnic(0, client);
    bed.add_vnic(1, server);
    EXPECT_TRUE(bed.controller().trigger_offload(kServerVnic).ok());
    bed.run_for(seconds(4));
    const net::FiveTuple ft{net::Ipv4Addr(10, 0, 0, 1),
                            net::Ipv4Addr(10, 0, 0, 2), 43000, 80,
                            net::IpProto::kTcp};
    for (int i = 0; i < 32; ++i) {
      bed.vswitch(0).from_vm(
          kClientVnic,
          net::make_tcp_packet(ft, net::TcpFlags{.ack = true}, 100, kVpc));
      bed.run_for(milliseconds(1));
    }
    std::ostringstream ts, js;
    bed.telemetry()->dump_trace(ts);
    bed.telemetry()->write_json(js);
    *trace = ts.str();
    *json = js.str();
  };
  std::string t1, j1, t2, j2;
  run_once(&t1, &j1);
  run_once(&t2, &j2);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2) << "same-seed trace dumps differ";
  EXPECT_EQ(j1, j2) << "same-seed metric JSON differs";
}

}  // namespace
}  // namespace nezha::telemetry

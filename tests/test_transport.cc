// Transport layer: simulated network (latency, FIFO, jitter, partitions,
// byte accounting), geo topology (Table 1), and the real TCP transport
// (multi-reactor: framing, backpressure, dedup, quiesce, cross-process).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <mutex>
#include <thread>

#include "common/sync.h"
#include "rc/process_cluster.h"
#include "transport/geo.h"
#include "transport/sim_network.h"
#include "transport/tcp_transport.h"

namespace srpc {
namespace {

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }
std::string string_of(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

TEST(SimNetwork, DeliversWithConfiguredLatency) {
  SimNetwork net;
  Transport& a = net.add_node("a");
  Transport& b = net.add_node("b");
  net.set_one_way("a", "b", std::chrono::milliseconds(30));
  Event received;
  TimePoint arrival;
  b.set_receiver([&](const Address& src, Bytes payload) {
    EXPECT_EQ(src, "a");
    EXPECT_EQ(string_of(payload), "hello");
    arrival = Clock::now();
    received.set();
  });
  const TimePoint sent = Clock::now();
  a.send("b", bytes_of("hello"));
  ASSERT_TRUE(received.wait_for(std::chrono::seconds(5)));
  const double ms = to_ms(arrival - sent);
  EXPECT_GE(ms, 29.0);
  EXPECT_LE(ms, 60.0);
}

TEST(SimNetwork, AsymmetricLatencies) {
  SimNetwork net;
  Transport& a = net.add_node("a");
  Transport& b = net.add_node("b");
  net.set_one_way("a", "b", std::chrono::milliseconds(5));
  net.set_one_way("b", "a", std::chrono::milliseconds(40));
  Event pong;
  TimePoint t0;
  b.set_receiver([&](const Address&, Bytes) { b.send("a", bytes_of("pong")); });
  a.set_receiver([&](const Address&, Bytes) { pong.set(); });
  t0 = Clock::now();
  a.send("b", bytes_of("ping"));
  ASSERT_TRUE(pong.wait_for(std::chrono::seconds(5)));
  EXPECT_GE(to_ms(Clock::now() - t0), 44.0);
}

TEST(SimNetwork, FifoPerDirectedPair) {
  SimNetwork net;
  Transport& a = net.add_node("a");
  Transport& b = net.add_node("b");
  net.set_one_way("a", "b", std::chrono::microseconds(100),
                  /*jitter=*/std::chrono::microseconds(500));
  std::vector<int> received;
  std::mutex mu;
  WaitGroup wg;
  constexpr int kMessages = 200;
  wg.add(kMessages);
  b.set_receiver([&](const Address&, Bytes payload) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(static_cast<int>(payload[0]) * 256 +
                       static_cast<int>(payload[1]));
    wg.done();
  });
  for (int i = 0; i < kMessages; ++i) {
    a.send("b", Bytes{static_cast<std::uint8_t>(i / 256),
                      static_cast<std::uint8_t>(i % 256)});
  }
  wg.wait();
  // Despite jitter, per-pair delivery order matches send order (TCP-like).
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(received[i], i);
}

TEST(SimNetwork, TrafficAccounting) {
  SimNetwork net;
  Transport& a = net.add_node("a");
  Transport& b = net.add_node("b");
  Event done;
  b.set_receiver([&](const Address&, Bytes) { done.set(); });
  a.send("b", Bytes(100));
  ASSERT_TRUE(done.wait_for(std::chrono::seconds(5)));
  const auto a_stats = net.stats("a");
  const auto b_stats = net.stats("b");
  EXPECT_EQ(a_stats.msgs_sent, 1u);
  EXPECT_EQ(a_stats.bytes_sent, 100u);
  EXPECT_EQ(b_stats.msgs_recv, 1u);
  EXPECT_EQ(b_stats.bytes_recv, 100u);
  net.reset_stats();
  EXPECT_EQ(net.stats("a").bytes_sent, 0u);
}

TEST(SimNetwork, PartitionDropsAndHeals) {
  SimNetwork net;
  Transport& a = net.add_node("a");
  Transport& b = net.add_node("b");
  std::atomic<int> received{0};
  Event second;
  b.set_receiver([&](const Address&, Bytes) {
    if (received.fetch_add(1) + 1 == 1) second.set();
  });
  net.partition("a", "b", true);
  a.send("b", bytes_of("lost"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(received.load(), 0);
  net.partition("a", "b", false);
  a.send("b", bytes_of("delivered"));
  ASSERT_TRUE(second.wait_for(std::chrono::seconds(5)));
  EXPECT_EQ(received.load(), 1);
}

TEST(SimNetworkFaults, DropRateStatistics) {
  SimNetwork net;
  Transport& a = net.add_node("a");
  Transport& b = net.add_node("b");
  net.set_one_way("a", "b", std::chrono::microseconds(50));
  FaultCfg faults;
  faults.drop_prob = 0.5;
  net.set_faults("a", "b", faults);
  std::atomic<int> received{0};
  b.set_receiver([&](const Address&, Bytes) { received.fetch_add(1); });
  constexpr int kMessages = 400;
  for (int i = 0; i < kMessages; ++i) a.send("b", bytes_of("x"));
  // Undropped messages are in flight for <1ms; give them ample slack.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const int got = received.load();
  // Binomial(400, 0.5): [140, 260] is > 6 sigma around the mean.
  EXPECT_GE(got, 140);
  EXPECT_LE(got, 260);
  EXPECT_EQ(net.fault_stats().dropped, static_cast<std::uint64_t>(kMessages - got));
}

TEST(SimNetworkFaults, DuplicationDeliversTwice) {
  SimNetwork net;
  Transport& a = net.add_node("a");
  Transport& b = net.add_node("b");
  net.set_one_way("a", "b", std::chrono::microseconds(50));
  FaultCfg faults;
  faults.dup_prob = 1.0;
  net.set_faults("a", "b", faults);
  constexpr int kMessages = 50;
  WaitGroup wg;
  wg.add(kMessages * 2);
  std::atomic<int> received{0};
  b.set_receiver([&](const Address&, Bytes) {
    received.fetch_add(1);
    wg.done();
  });
  for (int i = 0; i < kMessages; ++i) a.send("b", bytes_of("x"));
  ASSERT_TRUE(wg.wait_for(std::chrono::seconds(5)));
  EXPECT_EQ(received.load(), kMessages * 2);
  EXPECT_EQ(net.fault_stats().duplicated, static_cast<std::uint64_t>(kMessages));
}

TEST(SimNetworkFaults, ReorderingObserved) {
  SimNetwork net;
  Transport& a = net.add_node("a");
  Transport& b = net.add_node("b");
  net.set_one_way("a", "b", std::chrono::microseconds(50));
  FaultCfg faults;
  faults.reorder_window = 3;
  faults.reorder_slack = std::chrono::microseconds(200);
  net.set_faults("a", "b", faults);
  constexpr int kMessages = 300;
  std::vector<int> received;
  std::mutex mu;
  WaitGroup wg;
  wg.add(kMessages);
  b.set_receiver([&](const Address&, Bytes payload) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(static_cast<int>(payload[0]) * 256 +
                       static_cast<int>(payload[1]));
    wg.done();
  });
  for (int i = 0; i < kMessages; ++i) {
    a.send("b", Bytes{static_cast<std::uint8_t>(i / 256),
                      static_cast<std::uint8_t>(i % 256)});
  }
  ASSERT_TRUE(wg.wait_for(std::chrono::seconds(10)));
  // Nothing is lost under pure reordering...
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kMessages));
  // ...but with window=3 (held back with prob 3/4 per message) at least one
  // inversion is overwhelmingly likely.
  int inversions = 0;
  for (int i = 1; i < kMessages; ++i) {
    if (received[i] < received[i - 1]) ++inversions;
  }
  EXPECT_GT(inversions, 0);
  EXPECT_GT(net.fault_stats().reordered, 0u);
}

TEST(SimNetworkFaults, FlapDropsThenHeals) {
  SimNetwork net;
  Transport& a = net.add_node("a");
  Transport& b = net.add_node("b");
  std::atomic<int> received{0};
  b.set_receiver([&](const Address&, Bytes) { received.fetch_add(1); });
  // Up 20ms / down 20ms; sends every 2ms for 160ms straddle several down
  // phases, so some messages must be eaten.
  net.flap_link("a", "b", std::chrono::milliseconds(20),
                std::chrono::milliseconds(20));
  for (int i = 0; i < 80; ++i) {
    a.send("b", bytes_of("tick"));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(net.fault_stats().dropped, 0u);
  EXPECT_GT(received.load(), 0);
  // After stop_flaps() the link is healed for good: a fresh message arrives.
  net.stop_flaps();
  Event final_msg;
  const int before = received.load();
  b.set_receiver([&](const Address&, Bytes) {
    received.fetch_add(1);
    final_msg.set();
  });
  a.send("b", bytes_of("after-heal"));
  ASSERT_TRUE(final_msg.wait_for(std::chrono::seconds(5)));
  EXPECT_GT(received.load(), before);
}

TEST(SimNetworkFaults, SetFaultsAllAppliesToLiveLinks) {
  SimNetwork net;
  Transport& a = net.add_node("a");
  Transport& b = net.add_node("b");
  // Materialize the a->b peer entry with a normal delivery first.
  Event first;
  std::atomic<int> received{0};
  b.set_receiver([&](const Address&, Bytes) {
    if (received.fetch_add(1) + 1 == 1) first.set();
  });
  a.send("b", bytes_of("warm"));
  ASSERT_TRUE(first.wait_for(std::chrono::seconds(5)));
  // Now a blanket drop-everything profile must reach the live peer entry.
  FaultCfg faults;
  faults.drop_prob = 1.0;
  net.set_faults_all(faults);
  a.send("b", bytes_of("lost"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(received.load(), 1);
  EXPECT_GE(net.fault_stats().dropped, 1u);
  // Clearing restores delivery (and applies to links not yet materialized).
  net.set_faults_all(FaultCfg{});
  Event second;
  b.set_receiver([&](const Address&, Bytes) {
    received.fetch_add(1);
    second.set();
  });
  a.send("b", bytes_of("restored"));
  ASSERT_TRUE(second.wait_for(std::chrono::seconds(5)));
  EXPECT_EQ(received.load(), 2);
}

TEST(SimNetwork, DuplicateNodeRejected) {
  SimNetwork net;
  net.add_node("a");
  EXPECT_THROW(net.add_node("a"), std::invalid_argument);
}

TEST(GeoTopology, Table1Matrix) {
  SimNetwork net;
  GeoConfig geo;  // Table 1 defaults
  GeoTopology topo(net, geo);
  EXPECT_EQ(topo.num_dcs(), 3);
  EXPECT_EQ(to_ms(topo.rtt(0, 1)), 140.0);
  EXPECT_EQ(to_ms(topo.rtt(0, 2)), 122.0);
  EXPECT_EQ(to_ms(topo.rtt(1, 2)), 243.0);
  EXPECT_EQ(to_ms(topo.rtt(2, 1)), 243.0);
  EXPECT_EQ(topo.address(0, "x"), "oregon.x");
}

TEST(GeoTopology, ScaleAppliesToAllLatencies) {
  SimNetwork net;
  GeoConfig geo;
  geo.scale = 0.5;
  GeoTopology topo(net, geo);
  EXPECT_EQ(to_ms(topo.rtt(1, 2)), 121.5);
}

TEST(GeoTopology, MachinesInSameDcUseLanLatency) {
  SimNetwork net;
  GeoConfig geo;
  geo.lan_rtt_ms = 2.0;
  geo.jitter_ms = 0.0;
  GeoTopology topo(net, geo);
  Transport& m1 = topo.add_machine(0, "m1");
  Transport& m2 = topo.add_machine(0, "m2");
  Event got;
  TimePoint arrival;
  m2.set_receiver([&](const Address&, Bytes) {
    arrival = Clock::now();
    got.set();
  });
  const TimePoint sent = Clock::now();
  m1.send(topo.address(0, "m2"), bytes_of("x"));
  ASSERT_TRUE(got.wait_for(std::chrono::seconds(5)));
  const double ms = to_ms(arrival - sent);
  EXPECT_GE(ms, 0.9);   // one way = 1ms
  EXPECT_LE(ms, 20.0);
  (void)m1;
}

TEST(TcpTransport, RoundTripAndStats) {
  Executor executor(4, "tcp-test");
  TcpTransport server(executor);
  TcpTransport client(executor);
  Event got_reply;
  std::string reply;
  server.set_receiver([&](const Address& src, Bytes payload) {
    std::string msg = string_of(payload);
    server.send(src, bytes_of("re:" + msg));
  });
  client.set_receiver([&](const Address& src, Bytes payload) {
    EXPECT_EQ(src, server.address());
    reply = string_of(payload);
    got_reply.set();
  });
  client.send(server.address(), bytes_of("hello"));
  ASSERT_TRUE(got_reply.wait_for(std::chrono::seconds(10)));
  EXPECT_EQ(reply, "re:hello");
  EXPECT_GE(client.stats().bytes_sent, 5u);
  EXPECT_GE(client.stats().bytes_recv, 8u);
}

TEST(TcpTransport, ManyMessagesBothDirectionsStayOrdered) {
  Executor executor(4, "tcp-test");
  TcpTransport server(executor);
  TcpTransport client(executor);
  constexpr int kMessages = 300;
  std::vector<int> received;
  std::mutex mu;
  WaitGroup wg;
  wg.add(kMessages);
  server.set_receiver([&](const Address& src, Bytes payload) {
    server.send(src, std::move(payload));  // echo
  });
  client.set_receiver([&](const Address&, Bytes payload) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(static_cast<int>(payload[0]) * 256 +
                       static_cast<int>(payload[1]));
    wg.done();
  });
  for (int i = 0; i < kMessages; ++i) {
    client.send(server.address(),
                Bytes{static_cast<std::uint8_t>(i / 256),
                      static_cast<std::uint8_t>(i % 256), 0xAB});
  }
  ASSERT_TRUE(wg.wait_for(std::chrono::seconds(30)));
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(received[i], i);
}

TEST(TcpTransport, LargePayload) {
  Executor executor(4, "tcp-test");
  TcpTransport server(executor);
  TcpTransport client(executor);
  Event done;
  std::size_t got = 0;
  server.set_receiver([&](const Address&, Bytes payload) {
    got = payload.size();
    done.set();
  });
  Bytes big(1 << 20, 0x5A);  // 1 MiB
  client.send(server.address(), std::move(big));
  ASSERT_TRUE(done.wait_for(std::chrono::seconds(30)));
  EXPECT_EQ(got, 1u << 20);
}

// A raw TCP endpoint for exercising the transport's kernel-facing edges
// (frame validation, backpressure) without a second transport in the way.
struct RawPeer {
  int listen_fd = -1;
  int conn_fd = -1;
  std::uint16_t port = 0;

  RawPeer() {
    listen_fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int one = 1;
    setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    bind(listen_fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    listen(listen_fd, 8);
    socklen_t len = sizeof(sa);
    getsockname(listen_fd, reinterpret_cast<sockaddr*>(&sa), &len);
    port = ntohs(sa.sin_port);
  }
  ~RawPeer() {
    if (conn_fd >= 0) ::close(conn_fd);
    if (listen_fd >= 0) ::close(listen_fd);
  }
  Address address() const { return "127.0.0.1:" + std::to_string(port); }
  void accept_one() { conn_fd = ::accept(listen_fd, nullptr, nullptr); }
  /// Reads up to max_bytes but never blocks longer than 100ms waiting for
  /// data — callers loop on an external condition and must be able to
  /// re-check it even if the stream has momentarily (or permanently) dried
  /// up.
  std::size_t drain_some(std::size_t max_bytes) {
    std::vector<char> buf(65536);
    std::size_t total = 0;
    while (total < max_bytes) {
      struct pollfd pfd{conn_fd, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) break;
      const ssize_t n = ::read(conn_fd, buf.data(),
                               std::min(buf.size(), max_bytes - total));
      if (n <= 0) break;
      total += static_cast<std::size_t>(n);
    }
    return total;
  }
};

TEST(TcpTransport, LargeFrameReassemblyPreservesContent) {
  Executor executor(4, "tcp-test");
  TcpTransport server(executor);
  TcpTransport client(executor);
  // Well past one 64 KiB read chunk, with a position-dependent pattern so a
  // mis-stitched reassembly (wrong offset, dropped chunk) changes bytes,
  // not just the length.
  constexpr std::size_t kSize = 300 * 1024 + 7;
  Bytes pattern(kSize);
  for (std::size_t i = 0; i < kSize; ++i)
    pattern[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 8));
  Event done;
  Bytes got;
  server.set_receiver([&](const Address&, Bytes payload) {
    got = std::move(payload);
    done.set();
  });
  Bytes copy = pattern;
  client.send(server.address(), std::move(copy));
  ASSERT_TRUE(done.wait_for(std::chrono::seconds(30)));
  ASSERT_EQ(got.size(), kSize);
  EXPECT_TRUE(got == pattern);
}

TEST(TcpTransport, RejectsOversizedInboundFrameAndCloses) {
  Executor executor(2, "tcp-test");
  TcpConfig config;
  config.max_frame_bytes = 1 << 16;
  TcpTransport server(executor, config);
  server.set_receiver([](const Address&, Bytes) {});

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = htons(static_cast<std::uint16_t>(
      std::stoi(server.address().substr(server.address().find(':') + 1))));
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  // Claimed length 256 MiB >> max_frame_bytes: must be rejected before any
  // buffering happens on its behalf.
  const std::uint8_t evil[4] = {0x00, 0x00, 0x00, 0x10};
  ASSERT_EQ(write(fd, evil, sizeof(evil)), 4);
  // The server closes the connection: our next read sees EOF.
  char buf[16];
  ssize_t n = -1;
  for (int i = 0; i < 500; ++i) {
    n = recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(n, 0);
  EXPECT_EQ(server.stats().frames_rejected, 1u);
  EXPECT_EQ(server.stats().msgs_recv, 0u);
  ::close(fd);
}

TEST(TcpTransport, OversizedSendIsRefusedAndCounted) {
  Executor executor(2, "tcp-test");
  TcpConfig config;
  config.max_frame_bytes = 1024;
  TcpTransport client(executor, config);
  client.send("127.0.0.1:9", Bytes(4096, 0x11));
  EXPECT_EQ(client.stats().send_drops, 1u);
  EXPECT_EQ(client.stats().msgs_sent, 0u);
}

TEST(TcpTransport, UnreachablePeerCountsSendDrops) {
  Executor executor(2, "tcp-test");
  // Grab a port that is definitely closed: bind, learn it, release it.
  std::uint16_t dead_port;
  {
    RawPeer probe;
    dead_port = probe.port;
  }
  TcpTransport client(executor);
  client.send("127.0.0.1:" + std::to_string(dead_port), bytes_of("lost"));
  // The non-blocking connect fails asynchronously (EPOLLERR on the owning
  // reactor); the queued frame must surface as a send_drop, not vanish.
  bool dropped = false;
  for (int i = 0; i < 500 && !dropped; ++i) {
    dropped = client.stats().send_drops >= 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(dropped);
}

TEST(TcpTransport, BackpressureBlocksSenderUntilDrained) {
  Executor executor(2, "tcp-test");
  TcpConfig config;
  config.outbuf_hi_watermark = 256 * 1024;
  config.overflow = TcpConfig::OverflowPolicy::kBlock;
  // Small SO_SNDBUF: the kernel absorbs ~hundreds of KiB, not autotuned
  // megabytes, so the user-space watermark is what the sender actually hits.
  config.so_sndbuf = 64 * 1024;
  TcpTransport client(executor, config);
  RawPeer peer;  // accepts but does not read
  std::thread accepter([&] { peer.accept_one(); });
  client.send(peer.address(), Bytes(1024, 0xAA));  // triggers the dial
  accepter.join();

  // Push far more than kernel buffers + watermark can hold; the sender
  // thread must stall inside send() on the watermark.
  constexpr int kTotal = 600;  // 600 x 16 KiB = 9.4 MiB
  std::atomic<int> sent{0};
  std::thread sender([&] {
    for (int i = 0; i < kTotal; ++i) {
      client.send(peer.address(), Bytes(16 * 1024, 0xBB));
      sent.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_LT(sent.load(), kTotal) << "sender should be blocked on watermark";
  // Draining the peer releases the sender.
  std::thread drainer([&] {
    while (sent.load() < kTotal) peer.drain_some(1 << 20);
  });
  sender.join();
  drainer.join();
  EXPECT_EQ(sent.load(), kTotal);
  EXPECT_EQ(client.stats().send_shed, 0u);
}

TEST(TcpTransport, BackpressureShedPolicyDropsWithCounter) {
  Executor executor(2, "tcp-test");
  TcpConfig config;
  config.outbuf_hi_watermark = 128 * 1024;
  config.overflow = TcpConfig::OverflowPolicy::kShed;
  config.so_sndbuf = 64 * 1024;
  TcpTransport client(executor, config);
  RawPeer peer;
  std::thread accepter([&] { peer.accept_one(); });
  client.send(peer.address(), Bytes(1024, 0xAA));
  accepter.join();

  // kShed must never block: this loop completes promptly no matter how
  // wedged the peer is, with the overflow visible in send_shed.
  for (int i = 0; i < 600; ++i)
    client.send(peer.address(), Bytes(16 * 1024, 0xCC));
  EXPECT_GT(client.stats().send_shed, 0u);
  EXPECT_LT(client.stats().msgs_sent, 601u);
}

TEST(TcpTransport, SimultaneousConnectKeepsOneMappingAndLosesNothing) {
  // Regression for the dual-dial bug: when two nodes dial each other
  // concurrently, the handshake used to keep both connections and the
  // loser's close could erase the live by_peer_ routing entry, black-holing
  // every later send. Both sides must converge on one surviving connection
  // and deliver everything sent on either.
  for (int round = 0; round < 5; ++round) {
    Executor executor(4, "tcp-test");
    TcpTransport a(executor);
    TcpTransport b(executor);
    constexpr int kEach = 100;
    std::atomic<int> at_a{0}, at_b{0};
    a.set_receiver([&](const Address&, Bytes) { at_a.fetch_add(1); });
    b.set_receiver([&](const Address&, Bytes) { at_b.fetch_add(1); });
    // Dial each other from two threads at once to race the handshakes.
    std::thread ta([&] {
      for (int i = 0; i < kEach; ++i) a.send(b.address(), bytes_of("a2b"));
    });
    std::thread tb([&] {
      for (int i = 0; i < kEach; ++i) b.send(a.address(), bytes_of("b2a"));
    });
    ta.join();
    tb.join();
    for (int i = 0; i < 1000; ++i) {
      if (at_a.load() == kEach && at_b.load() == kEach) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(at_b.load(), kEach) << "round " << round;
    EXPECT_EQ(at_a.load(), kEach) << "round " << round;
    // The surviving mapping must still route: traffic after dedup works.
    a.send(b.address(), bytes_of("post"));
    b.send(a.address(), bytes_of("post"));
    for (int i = 0; i < 1000; ++i) {
      if (at_a.load() == kEach + 1 && at_b.load() == kEach + 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(at_b.load(), kEach + 1) << "round " << round;
    EXPECT_EQ(at_a.load(), kEach + 1) << "round " << round;
    EXPECT_EQ(a.stats().send_drops + b.stats().send_drops, 0u);
  }
}

TEST(TcpTransport, QuiesceUnderLoadIsARealBarrier) {
  Executor executor(4, "tcp-test");
  TcpTransport server(executor);
  TcpTransport client(executor);
  std::atomic<int> active{0};
  std::atomic<int> delivered{0};
  std::atomic<bool> detached{false};
  server.set_receiver([&](const Address&, Bytes) {
    active.fetch_add(1);
    EXPECT_FALSE(detached.load()) << "receiver ran after quiesce returned";
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    delivered.fetch_add(1);
    active.fetch_sub(1);
  });
  std::atomic<bool> stop{false};
  // The pump stays at most kBacklog frames ahead of the receiver: enough
  // that deliveries are still queued when the receiver detaches, without
  // the unbounded queues of an unpaced sender (gigabytes within seconds).
  constexpr int kBacklog = 1024;
  std::thread pump([&] {
    int sent = 0;
    while (!stop.load()) {
      if (sent - delivered.load() >= kBacklog) {
        std::this_thread::yield();
        continue;
      }
      client.send(server.address(), Bytes(64, 0x42));
      ++sent;
    }
  });
  // Let deliveries pile up, then detach mid-stream.
  while (delivered.load() < 50) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.set_receiver(nullptr);
  server.quiesce();
  EXPECT_EQ(active.load(), 0) << "quiesce returned with a receiver in flight";
  detached.store(true);
  stop.store(true);
  pump.join();
}

TEST(ProcessCluster, TwoProcessSmoke) {
  if (rc::ProcessCluster::find_node_binary().empty())
    GTEST_SKIP() << "rc_cluster_node binary not found (fork/exec unavailable "
                    "or out-of-tree test run)";
  rc::ProcessClusterConfig config;
  config.flavor = Flavor::kTrad;
  config.num_dcs = 1;  // 1 server process + 1 client process
  config.clients_per_dc = 2;
  config.read_quorum = 1;
  config.vote_quorum = 1;
  config.num_keys = 500;
  config.warmup = std::chrono::milliseconds(100);
  config.measure = std::chrono::milliseconds(500);
  rc::ProcessCluster cluster(config);
  const auto result = cluster.run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.committed, 0u);
  EXPECT_GT(result.mean_txn_ms, 0.0);
}

// Three DCs of SpecRPC processes. Every process numbers its engines from 1,
// and each client process calls the servers of every DC, so two clients'
// call ids meet at one server unless ids carry a per-process nonce; a clash
// drops a request as a duplicate or lets a stray state-change message
// decide another client's call.
TEST(ProcessCluster, ThreeDcSpecClientsShareServers) {
  if (rc::ProcessCluster::find_node_binary().empty())
    GTEST_SKIP() << "rc_cluster_node binary not found (fork/exec unavailable "
                    "or out-of-tree test run)";
  rc::ProcessClusterConfig config;
  config.flavor = Flavor::kSpec;
  config.num_dcs = 3;  // 3 server processes + 3 client processes
  config.clients_per_dc = 2;
  config.num_keys = 500;
  config.warmup = std::chrono::milliseconds(100);
  config.measure = std::chrono::milliseconds(500);
  rc::ProcessCluster cluster(config);
  // The children inherit the captured stderr, so their WARN lines land here.
  testing::internal::CaptureStderr();
  const auto result = cluster.run();
  const std::string log = testing::internal::GetCapturedStderr();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.committed, 0u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(log.find("duplicate incoming call id"), std::string::npos) << log;
}

}  // namespace
}  // namespace srpc

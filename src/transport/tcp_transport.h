// Real TCP transport: sharded multi-reactor epoll, write coalescing,
// bounded outbound buffers with backpressure.
//
// Architecture (DESIGN.md §10):
//
//   * N reactor threads, each with its own epoll instance and eventfd.
//     Connections are assigned to a reactor by fd hash at creation and
//     never migrate; all epoll_ctl calls and ::close for a connection
//     happen on its owning reactor thread, so fd lifecycle is single-
//     threaded and interest is updated with targeted epoll_ctl on state
//     change (edge-triggered), never a full per-tick re-arm.
//
//   * send() appends a frame (header + payload, payload moved not copied)
//     to the connection's pending queue under that connection's own mutex,
//     then marks the connection dirty with its reactor. The eventfd is
//     written only when the owning reactor may actually be sleeping in
//     epoll_wait and no wake is already pending (dirty-flag + pending-wake
//     bit), so a burst of sends costs one wakeup syscall, not one per
//     message. The global mutex survives only for the by_peer_ routing
//     map and is taken briefly, never across a syscall.
//
//   * The reactor drains a connection by swapping the pending queue for
//     its private draining queue (double buffering: senders never wait on
//     the syscall) and gathering up to TcpConfig::coalesce_bytes of frame
//     headers + payloads into one sendmsg. On EAGAIN it arms EPOLLOUT for
//     that connection only; once drained it disarms.
//
//   * Inbound bytes are read into a BufferPool-recycled buffer and frames
//     are consumed by offset; compaction is deferred until the consumed
//     prefix dominates the buffer. The 4-byte frame length is validated
//     against max_frame_bytes before any buffering — a corrupt or hostile
//     length closes the connection (counted in TrafficStats::
//     frames_rejected) instead of driving an unbounded allocation.
//
//   * Outbound queues are bounded by a high watermark. A sender that
//     overflows it either blocks until the reactor drains below the low
//     watermark (kBlock, the default — closed-loop callers self-clock) or
//     sheds the frame with a counter (kShed, for fire-and-forget traffic
//     where the retry layer owns reliability).
//
// Frame format (unchanged from the single-reactor transport): u32
// little-endian length covering a 1-byte marker + payload. Marker 0x00 is
// data; 0x01 is the handshake announcing the dialer's listening address,
// sent first on every outbound connection.
//
// Simultaneous connect: when two nodes dial each other concurrently the
// handshake can discover a second connection for the same peer. Both sides
// deterministically route to the connection whose *dialer* has the
// lexicographically lower address; the loser is demoted (no new sends),
// flushed, and closed by the side that dialed it. Frames already queued on
// the loser still arrive, but ordering between the last loser frames and
// the first winner frames is not guaranteed — the same transient the
// retry/dedup layer already tolerates from SimNetwork's reorder faults.
//
// Lock order: a reactor's registry mutex and the global by_peer_ mutex are
// never held together; a connection's send mutex is a leaf (no other lock
// is ever taken under it).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/executor.h"
#include "common/strand.h"
#include "transport/transport.h"

namespace srpc {

struct TcpConfig {
  /// Listening port; 0 picks a free port on 127.0.0.1.
  std::uint16_t port = 0;
  /// Reactor (epoll) threads. 0 = auto: min(4, hardware_concurrency).
  int reactors = 0;
  /// Upper bound on one frame's payload. Inbound violations close the
  /// connection (frames_rejected); oversized send() payloads are refused
  /// and counted as send_drops.
  std::size_t max_frame_bytes = 64u << 20;
  /// Max bytes gathered into a single sendmsg (frame boundaries respected).
  std::size_t coalesce_bytes = 256u << 10;
  /// SO_SNDBUF for every connection; 0 = kernel default/autotuning. Tests
  /// set this small so the outbuf watermark — not megabytes of kernel
  /// buffer — absorbs a slow peer.
  std::size_t so_sndbuf = 0;
  /// Outbound queue high watermark per connection (pending + draining
  /// bytes). 0 = unbounded (no backpressure, the historical behaviour).
  std::size_t outbuf_hi_watermark = 0;
  /// Blocked senders resume below this; 0 = half of the high watermark.
  std::size_t outbuf_lo_watermark = 0;
  enum class OverflowPolicy {
    kBlock,  // send() blocks until the queue drains (or the conn dies)
    kShed,   // send() drops the frame and counts it in send_shed
  };
  OverflowPolicy overflow = OverflowPolicy::kBlock;
};

class TcpTransport final : public Transport {
 public:
  /// Binds and listens on 127.0.0.1:`port` (port 0 picks a free port).
  /// Receiver callbacks run on `executor`, serialized per connection.
  explicit TcpTransport(Executor& executor, std::uint16_t port = 0);
  TcpTransport(Executor& executor, TcpConfig config);
  ~TcpTransport() override;

  const Address& address() const override { return addr_; }
  bool send(const Address& dst, Bytes payload) override;
  void set_receiver(Receiver receiver) override;
  void quiesce() override;

  TrafficStats stats() const;
  int reactor_count() const { return static_cast<int>(reactors_.size()); }

 private:
  /// One length-prefixed frame awaiting transmission. The header (length +
  /// marker) lives inline; the payload is the caller's Bytes, moved — the
  /// sendmsg gather is the first and only time the bytes are walked.
  struct OutFrame {
    std::array<std::uint8_t, 5> header;
    Bytes payload;
  };

  struct Conn {
    int fd = -1;
    std::size_t reactor = 0;   // owning reactor index (fd-hash assigned)
    bool outbound = false;     // we dialed it (vs accepted)
    std::shared_ptr<Strand> strand;

    // ---- send side, guarded by send_mu (leaf lock) ----
    std::mutex send_mu;
    std::condition_variable send_cv;  // backpressure waiters
    std::vector<OutFrame> pending;    // writers append here
    std::size_t pending_bytes = 0;    // wire bytes represented by `pending`
    std::size_t draining_bytes = 0;   // wire bytes left in `draining`
    bool scheduled = false;  // reactor attention requested (dirty/EPOLLOUT)
    bool demoted = false;    // lost simultaneous-connect dedup: flush, stop
    bool closed = false;
    int block_waiters = 0;
    Address peer;  // empty until handshake received (inbound conns)

    // ---- reactor-private state (owning reactor thread only) ----
    std::vector<OutFrame> draining;
    std::size_t drain_frame = 0;  // first unsent frame in draining
    std::size_t drain_off = 0;    // bytes of that frame already written
    Bytes stage;  // small-frame coalescing buffer for the sendmsg gather
    bool epoll_added = false;
    bool epollout_armed = false;
    /// Receive buffer. inbuf.size() is allocated space (grown, never shrunk
    /// per read — a per-read resize() would memset the whole chunk);
    /// in_len is the valid prefix, in_off the consumed prefix.
    Bytes inbuf;
    std::size_t in_len = 0;
    std::size_t in_off = 0;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  struct Reactor {
    int epfd = -1;
    int wakefd = -1;
    std::thread thread;
    /// True while the reactor may be blocked in epoll_wait. Paired with
    /// wake_pending: a sender writes the eventfd only when it wins the
    /// pending bit *and* the reactor might be asleep.
    std::atomic<bool> sleeping{false};
    std::atomic<bool> wake_pending{false};
    std::mutex mu;  // guards conns + dirty
    std::unordered_map<int, ConnPtr> conns;
    std::vector<ConnPtr> dirty;
  };

  void start(TcpConfig config);
  void reactor_loop(Reactor& r);
  void handle_accept();
  void handle_readable(Reactor& r, const ConnPtr& conn);
  void drain_conn(Reactor& r, const ConnPtr& conn);
  void close_conn(Reactor& r, const ConnPtr& conn);
  /// Hands every data payload parsed from one read pass to the receiver as
  /// a single strand task: the task, allocation, and gate costs are per
  /// read batch, not per frame. Drops the batch if the peer is still
  /// unhandshaken (nothing to attribute it to).
  void deliver_batch(const ConnPtr& conn, std::vector<Bytes>&& payloads,
                     std::size_t payload_bytes);
  /// Routes handshake dedup: returns the surviving mapping for `peer`.
  void on_handshake(Reactor& r, const ConnPtr& conn, Address peer);

  ConnPtr lookup_or_connect(const Address& dst);
  Reactor& reactor_of(const Conn& conn) { return *reactors_[conn.reactor]; }
  /// Marks `conn` dirty with its reactor and wakes it if it may be asleep.
  void schedule_conn(const ConnPtr& conn);
  void enqueue_dirty(Reactor& r, ConnPtr conn);
  void maybe_wake(Reactor& r);
  /// Reactor-thread only: set or clear EPOLLOUT interest via targeted
  /// epoll_ctl (MOD with ADD fallback for not-yet-registered conns).
  void update_interest(Reactor& r, Conn& conn, bool want_out);

  Executor& executor_;
  TcpConfig config_;
  Address addr_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Reactor>> reactors_;

  /// Receiver slot shared with queued strand tasks: tasks re-read the
  /// current receiver at run time (never a stale copy) and count themselves
  /// in flight, so set_receiver(nullptr) + quiesce() is a real barrier even
  /// for deliveries still queued on the executor. shared_ptr because those
  /// tasks may run after ~TcpTransport when the executor outlives it.
  struct RecvGate {
    std::mutex mu;
    std::condition_variable cv;
    Receiver receiver;
    int in_flight = 0;
  };
  std::shared_ptr<RecvGate> gate_ = std::make_shared<RecvGate>();

  /// Guards by_peer_ only. Taken briefly for routing lookups, handshake
  /// dedup, and close-time unmapping — never across a syscall.
  mutable std::mutex mu_;
  std::unordered_map<Address, ConnPtr> by_peer_;

  // Relaxed atomics so stats() never depends on any lock discipline.
  std::atomic<std::uint64_t> msgs_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> msgs_recv_{0};
  std::atomic<std::uint64_t> bytes_recv_{0};
  std::atomic<std::uint64_t> send_drops_{0};
  std::atomic<std::uint64_t> send_shed_{0};
  std::atomic<std::uint64_t> frames_rejected_{0};
  std::atomic<std::uint64_t> wakeups_{0};
};

}  // namespace srpc

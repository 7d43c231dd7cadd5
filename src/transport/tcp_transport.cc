#include "transport/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/logging.h"
#include "serde/buffer_pool.h"

namespace srpc {
namespace {

constexpr std::uint8_t kDataMarker = 0x00;
constexpr std::uint8_t kHandshakeMarker = 0x01;
constexpr std::size_t kReadChunk = 64 * 1024;
/// Consumed-prefix compaction threshold: move bytes only once the dead
/// prefix is both sizeable and the majority of the buffer.
constexpr std::size_t kCompactBytes = 64 * 1024;
/// iovec slots per sendmsg (2 per frame: header + payload).
constexpr int kMaxIov = 64;
/// Frames with payloads at or below this are memcpy'd into the connection's
/// stage buffer and share one iovec: a burst of tiny frames then costs one
/// sendmsg regardless of count, instead of hitting the kMaxIov ceiling at 32
/// frames. Larger payloads keep their zero-copy iovec.
constexpr std::size_t kSmallFrameBytes = 4096;

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_sndbuf(int fd, std::size_t bytes) {
  if (bytes == 0) return;
  int sz = static_cast<int>(bytes);
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sz, sizeof(sz));
}

std::pair<std::string, std::uint16_t> split_addr(const Address& addr) {
  const auto pos = addr.find_last_of(':');
  if (pos == std::string::npos)
    throw std::invalid_argument("bad address: " + addr);
  return {addr.substr(0, pos),
          static_cast<std::uint16_t>(std::stoi(addr.substr(pos + 1)))};
}

void put_frame_header(std::array<std::uint8_t, 5>& out, std::uint32_t len,
                      std::uint8_t marker) {
  for (int i = 0; i < 4; ++i)
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  out[4] = marker;
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

TcpTransport::TcpTransport(Executor& executor, std::uint16_t port)
    : TcpTransport(executor, TcpConfig{.port = port}) {}

TcpTransport::TcpTransport(Executor& executor, TcpConfig config)
    : executor_(executor) {
  start(config);
}

void TcpTransport::start(TcpConfig config) {
  config_ = config;
  if (config_.outbuf_lo_watermark == 0)
    config_.outbuf_lo_watermark = config_.outbuf_hi_watermark / 2;

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = htons(config_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0)
    throw std::runtime_error("bind() failed");
  if (listen(listen_fd_, 128) != 0) throw std::runtime_error("listen() failed");

  socklen_t len = sizeof(sa);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&sa), &len);
  addr_ = "127.0.0.1:" + std::to_string(ntohs(sa.sin_port));
  set_nonblocking(listen_fd_);

  int n = config_.reactors;
  if (n <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = static_cast<int>(std::min(4u, std::max(1u, hw)));
  }
  reactors_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto r = std::make_unique<Reactor>();
    r->epfd = epoll_create1(0);
    r->wakefd = eventfd(0, EFD_NONBLOCK);
    if (r->epfd < 0 || r->wakefd < 0)
      throw std::runtime_error("epoll/eventfd setup failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = r->wakefd;
    epoll_ctl(r->epfd, EPOLL_CTL_ADD, r->wakefd, &ev);
    reactors_.push_back(std::move(r));
  }
  // The accept socket lives on reactor 0 (level-triggered: a backlog that
  // outlives one accept sweep simply re-fires).
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(reactors_[0]->epfd, EPOLL_CTL_ADD, listen_fd_, &ev);

  for (auto& r : reactors_)
    r->thread = std::thread([this, rp = r.get()] { reactor_loop(*rp); });
}

TcpTransport::~TcpTransport() {
  stopping_.store(true, std::memory_order_seq_cst);
  for (auto& r : reactors_) {
    std::uint64_t one = 1;
    [[maybe_unused]] auto w = write(r->wakefd, &one, sizeof(one));
  }
  // Release senders blocked on the outbound watermark before joining; their
  // wait predicate re-checks stopping_.
  for (auto& r : reactors_) {
    std::lock_guard<std::mutex> lock(r->mu);
    for (auto& [fd, conn] : r->conns) {
      std::lock_guard<std::mutex> send_lock(conn->send_mu);
      conn->send_cv.notify_all();
    }
  }
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
  for (auto& r : reactors_) {
    for (auto& [fd, conn] : r->conns) ::close(fd);
    ::close(r->epfd);
    ::close(r->wakefd);
  }
  ::close(listen_fd_);
}

void TcpTransport::set_receiver(Receiver receiver) {
  std::lock_guard<std::mutex> lock(gate_->mu);
  gate_->receiver = std::move(receiver);
}

void TcpTransport::quiesce() {
  std::unique_lock<std::mutex> lock(gate_->mu);
  gate_->cv.wait(lock, [&] { return gate_->in_flight == 0; });
}

TrafficStats TcpTransport::stats() const {
  TrafficStats s;
  s.msgs_sent = msgs_sent_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.msgs_recv = msgs_recv_.load(std::memory_order_relaxed);
  s.bytes_recv = bytes_recv_.load(std::memory_order_relaxed);
  s.send_drops = send_drops_.load(std::memory_order_relaxed);
  s.send_shed = send_shed_.load(std::memory_order_relaxed);
  s.frames_rejected = frames_rejected_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------- send path

TcpTransport::ConnPtr TcpTransport::lookup_or_connect(const Address& dst) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_peer_.find(dst);
    if (it != by_peer_.end()) return it->second;
  }
  // Dial outside the routing lock: connect() is a syscall and may take a
  // while for non-loopback peers.
  const auto [host, port] = split_addr(dst);
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  inet_pton(AF_INET, host.c_str(), &sa.sin_addr);
  set_nonblocking(fd);
  set_nodelay(fd);
  set_sndbuf(fd, config_.so_sndbuf);
  // Non-blocking connect: EINPROGRESS is fine, frames queue until writable.
  if (connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return nullptr;
  }
  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  conn->reactor = static_cast<std::size_t>(fd) % reactors_.size();
  conn->outbound = true;
  conn->peer = dst;
  conn->strand = Strand::create(executor_);
  // Handshake: announce our listening address so the peer can attribute and
  // reply on this connection. Not stats-accounted (framing overhead).
  OutFrame hello;
  put_frame_header(hello.header,
                   static_cast<std::uint32_t>(addr_.size() + 1),
                   kHandshakeMarker);
  hello.payload.assign(addr_.begin(), addr_.end());
  conn->pending_bytes += hello.header.size() + hello.payload.size();
  conn->pending.push_back(std::move(hello));

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = by_peer_.emplace(dst, conn);
    if (!inserted) {
      // Lost a dial race with another sender; use theirs.
      ::close(fd);
      return it->second;
    }
  }
  Reactor& r = reactor_of(*conn);
  {
    std::lock_guard<std::mutex> lock(r.mu);
    r.conns.emplace(fd, conn);
  }
  return conn;
}

bool TcpTransport::send(const Address& dst, Bytes payload) {
  if (payload.size() > config_.max_frame_bytes) {
    send_drops_.fetch_add(1, std::memory_order_relaxed);
    SRPC_LOG(WARN) << addr_ << ": send to " << dst << " exceeds max frame ("
                   << payload.size() << " bytes)";
    return false;
  }
  // Per-thread routing cache: the common case (steady traffic to a handful
  // of peers) skips the global mu_ + hash lookup entirely. Entries are
  // validated under the connection's send mutex below — a cached
  // connection that closed or lost simultaneous-connect dedup falls back
  // to the authoritative map.
  struct CacheSlot {
    const TcpTransport* transport = nullptr;
    Address dst;
    std::weak_ptr<Conn> conn;
  };
  constexpr std::size_t kCacheSlots = 8;
  static thread_local CacheSlot s_cache[kCacheSlots];
  static thread_local std::size_t s_cache_next = 0;
  CacheSlot* slot = nullptr;
  ConnPtr conn;
  for (auto& candidate : s_cache) {
    if (candidate.transport == this && candidate.dst == dst) {
      slot = &candidate;
      conn = candidate.conn.lock();
      break;
    }
  }
  bool from_cache = conn != nullptr;

  const std::size_t payload_size = payload.size();
  const std::size_t wire_size = payload_size + 5;
  bool need_schedule = false;
  for (;;) {
    if (conn == nullptr) {
      conn = lookup_or_connect(dst);
      if (conn == nullptr) {
        send_drops_.fetch_add(1, std::memory_order_relaxed);
        SRPC_LOG(WARN) << addr_ << ": connect to " << dst << " failed";
        return false;
      }
      if (slot == nullptr) slot = &s_cache[s_cache_next++ % kCacheSlots];
      slot->transport = this;
      slot->dst = dst;
      slot->conn = conn;
      from_cache = false;
    }
    std::unique_lock<std::mutex> lock(conn->send_mu);
    if (from_cache && (conn->closed || conn->demoted)) {
      // Stale cache entry: the live mapping (if any) is in by_peer_.
      lock.unlock();
      slot->transport = nullptr;
      conn = nullptr;
      from_cache = false;
      continue;
    }
    const std::size_t hi = config_.outbuf_hi_watermark;
    if (hi > 0 && !conn->closed &&
        conn->pending_bytes + conn->draining_bytes + wire_size > hi) {
      if (config_.overflow == TcpConfig::OverflowPolicy::kShed) {
        send_shed_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      Executor::before_block();
      const std::size_t lo = config_.outbuf_lo_watermark;
      ++conn->block_waiters;
      conn->send_cv.wait(lock, [&] {
        return conn->closed || stopping_.load(std::memory_order_relaxed) ||
               conn->pending_bytes + conn->draining_bytes <= lo;
      });
      --conn->block_waiters;
      if (stopping_.load(std::memory_order_relaxed) && !conn->closed &&
          conn->pending_bytes + conn->draining_bytes > lo) {
        // Released by shutdown, not by drainage: shed instead of wedging.
        send_shed_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    if (conn->closed) {
      lock.unlock();
      send_drops_.fetch_add(1, std::memory_order_relaxed);
      SRPC_LOG(WARN) << addr_ << ": send to " << dst
                     << " dropped (connection closed)";
      return false;
    }
    OutFrame frame;
    put_frame_header(frame.header,
                     static_cast<std::uint32_t>(payload_size + 1),
                     kDataMarker);
    frame.payload = std::move(payload);
    conn->pending_bytes += wire_size;
    conn->pending.push_back(std::move(frame));
    if (!conn->scheduled) {
      conn->scheduled = true;
      need_schedule = true;
    }
    break;
  }
  msgs_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(payload_size, std::memory_order_relaxed);
  if (need_schedule) schedule_conn(conn);
  return true;
}

void TcpTransport::schedule_conn(const ConnPtr& conn) {
  Reactor& r = reactor_of(*conn);
  enqueue_dirty(r, conn);
  maybe_wake(r);
}

void TcpTransport::enqueue_dirty(Reactor& r, ConnPtr conn) {
  std::lock_guard<std::mutex> lock(r.mu);
  r.dirty.push_back(std::move(conn));
}

void TcpTransport::maybe_wake(Reactor& r) {
  // Dirty-flag + pending-wake bit: only the sender that flips the pending
  // bit considers the syscall, and only when the reactor may actually be
  // parked in epoll_wait. The reactor clears the bit at the top of its loop
  // and re-checks it after announcing sleep, so a wake can be deferred but
  // never lost (seq_cst keeps the two-variable handshake sound).
  if (!r.wake_pending.exchange(true, std::memory_order_seq_cst)) {
    if (r.sleeping.load(std::memory_order_seq_cst)) {
      wakeups_.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t one = 1;
      [[maybe_unused]] auto w = write(r.wakefd, &one, sizeof(one));
    }
  }
}

// ------------------------------------------------------------ reactor side

void TcpTransport::reactor_loop(Reactor& r) {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  std::vector<ConnPtr> dirty;
  while (!stopping_.load(std::memory_order_seq_cst)) {
    r.wake_pending.store(false, std::memory_order_seq_cst);
    dirty.clear();
    {
      std::lock_guard<std::mutex> lock(r.mu);
      dirty.swap(r.dirty);
    }
    for (const auto& conn : dirty) drain_conn(r, conn);
    dirty.clear();  // release conn refs before parking

    r.sleeping.store(true, std::memory_order_seq_cst);
    const int timeout =
        (r.wake_pending.load(std::memory_order_seq_cst) ||
         stopping_.load(std::memory_order_seq_cst))
            ? 0
            : -1;
    const int n = epoll_wait(r.epfd, events, kMaxEvents, timeout);
    r.sleeping.store(false, std::memory_order_seq_cst);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == r.wakefd) {
        std::uint64_t buf;
        [[maybe_unused]] auto rd = read(r.wakefd, &buf, sizeof(buf));
        continue;
      }
      if (fd == listen_fd_) {
        handle_accept();
        continue;
      }
      ConnPtr conn;
      {
        std::lock_guard<std::mutex> lock(r.mu);
        auto it = r.conns.find(fd);
        if (it == r.conns.end()) continue;
        conn = it->second;
      }
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(r, conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) drain_conn(r, conn);
      if (events[i].events & EPOLLIN) handle_readable(r, conn);
    }
  }
}

void TcpTransport::handle_accept() {
  for (;;) {
    const int cfd = accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) break;
    set_nonblocking(cfd);
    set_nodelay(cfd);
    set_sndbuf(cfd, config_.so_sndbuf);
    auto conn = std::make_shared<Conn>();
    conn->fd = cfd;
    conn->reactor = static_cast<std::size_t>(cfd) % reactors_.size();
    conn->strand = Strand::create(executor_);
    Reactor& owner = reactor_of(*conn);
    {
      std::lock_guard<std::mutex> lock(owner.mu);
      owner.conns.emplace(cfd, conn);
    }
    {
      // Mark scheduled so the owner's first drain performs the epoll ADD
      // (all epoll_ctl for a connection happens on its owning reactor).
      std::lock_guard<std::mutex> lock(conn->send_mu);
      conn->scheduled = true;
    }
    schedule_conn(conn);
  }
}

void TcpTransport::update_interest(Reactor& r, Conn& conn, bool want_out) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET | (want_out ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  if (epoll_ctl(r.epfd, EPOLL_CTL_MOD, conn.fd, &ev) != 0 &&
      errno == ENOENT) {
    epoll_ctl(r.epfd, EPOLL_CTL_ADD, conn.fd, &ev);
  }
  conn.epoll_added = true;
  conn.epollout_armed = want_out;
}

void TcpTransport::drain_conn(Reactor& r, const ConnPtr& connp) {
  Conn& conn = *connp;
  if (conn.fd < 0) return;  // closed earlier in this event batch
  if (!conn.epoll_added) update_interest(r, conn, false);
  for (;;) {
    if (conn.drain_frame == conn.draining.size()) {
      // Refill: recycle spent payload buffers, then swap in the pending
      // queue (double buffering — senders appended to it lock-free w.r.t.
      // the sendmsg below).
      for (auto& frame : conn.draining)
        BufferPool::release(std::move(frame.payload));
      conn.draining.clear();
      conn.drain_frame = 0;
      conn.drain_off = 0;
      bool finished = false;
      bool close_demoted = false;
      {
        std::lock_guard<std::mutex> lock(conn.send_mu);
        conn.draining_bytes = 0;
        if (conn.pending.empty()) {
          conn.scheduled = false;
          finished = true;
          close_demoted = conn.demoted && conn.outbound;
        } else {
          conn.draining.swap(conn.pending);
          conn.draining_bytes = conn.pending_bytes;
          conn.pending_bytes = 0;
        }
        if (conn.block_waiters > 0) conn.send_cv.notify_all();
      }
      if (finished) {
        if (conn.epollout_armed) update_interest(r, conn, false);
        // A demoted connection we dialed is closed once flushed (the
        // simultaneous-connect loser; see header).
        if (close_demoted) close_conn(r, connp);
        return;
      }
    }
    // Gather up to coalesce_bytes of frames into one sendmsg. Small frames
    // are memcpy'd into the stage buffer (contiguous spans, one iovec per
    // span); large payloads go zero-copy with their own iovecs. The stage
    // is rebuilt from (drain_frame, drain_off) on every attempt, so a
    // partial write needs no stage-resume bookkeeping — the source frames
    // stay in `draining` until fully written.
    struct iovec iov[kMaxIov];
    int iovcnt = 0;
    std::size_t batch = 0;
    std::size_t fi = conn.drain_frame;
    std::size_t off = conn.drain_off;
    Bytes& stage = conn.stage;
    stage.clear();
    // Reserve once: appends must never reallocate, or open-span iov_base
    // pointers into the stage would dangle.
    const std::size_t stage_cap =
        config_.coalesce_bytes + kSmallFrameBytes + sizeof(OutFrame().header);
    if (stage.capacity() < stage_cap) stage.reserve(stage_cap);
    int stage_iov = -1;  // open stage-span iovec, -1 = none
    while (fi < conn.draining.size() && iovcnt + 2 <= kMaxIov &&
           batch < config_.coalesce_bytes) {
      OutFrame& frame = conn.draining[fi];
      const std::size_t header_size = frame.header.size();
      if (frame.payload.size() <= kSmallFrameBytes) {
        const std::size_t span_start = stage.size();
        if (off < header_size) {
          stage.insert(stage.end(), frame.header.begin() +
                                        static_cast<std::ptrdiff_t>(off),
                       frame.header.end());
          stage.insert(stage.end(), frame.payload.begin(),
                       frame.payload.end());
        } else {
          stage.insert(stage.end(),
                       frame.payload.begin() +
                           static_cast<std::ptrdiff_t>(off - header_size),
                       frame.payload.end());
        }
        const std::size_t added = stage.size() - span_start;
        if (stage_iov < 0) {
          stage_iov = iovcnt++;
          iov[stage_iov].iov_base = stage.data() + span_start;
          iov[stage_iov].iov_len = 0;
        }
        iov[stage_iov].iov_len += added;
        batch += added;
      } else {
        stage_iov = -1;  // a zero-copy frame closes the open span
        if (off < header_size) {
          iov[iovcnt].iov_base = frame.header.data() + off;
          iov[iovcnt].iov_len = header_size - off;
          batch += iov[iovcnt].iov_len;
          ++iovcnt;
          iov[iovcnt].iov_base = frame.payload.data();
          iov[iovcnt].iov_len = frame.payload.size();
          batch += iov[iovcnt].iov_len;
          ++iovcnt;
        } else {
          const std::size_t payload_off = off - header_size;
          iov[iovcnt].iov_base = frame.payload.data() + payload_off;
          iov[iovcnt].iov_len = frame.payload.size() - payload_off;
          batch += iov[iovcnt].iov_len;
          ++iovcnt;
        }
      }
      ++fi;
      off = 0;
    }
    // MSG_NOSIGNAL: a peer that already closed is an EPIPE, which closes
    // the connection below, not a SIGPIPE that kills the process.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOTCONN) {
        // Socket (or in-progress connect) not writable: arm EPOLLOUT for
        // this connection only and let readiness call us back.
        if (!conn.epollout_armed) update_interest(r, conn, true);
        return;
      }
      close_conn(r, connp);
      return;
    }
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0) {
      OutFrame& frame = conn.draining[conn.drain_frame];
      const std::size_t remaining =
          frame.header.size() + frame.payload.size() - conn.drain_off;
      if (left >= remaining) {
        left -= remaining;
        conn.drain_off = 0;
        ++conn.drain_frame;
      } else {
        conn.drain_off += left;
        left = 0;
      }
    }
    {
      std::lock_guard<std::mutex> lock(conn.send_mu);
      conn.draining_bytes -= static_cast<std::size_t>(n);
      if (conn.block_waiters > 0 &&
          conn.pending_bytes + conn.draining_bytes <=
              config_.outbuf_lo_watermark) {
        conn.send_cv.notify_all();
      }
    }
  }
}

void TcpTransport::handle_readable(Reactor& r, const ConnPtr& connp) {
  Conn& conn = *connp;
  if (conn.fd < 0) return;
  bool peer_gone = false;
  for (;;) {
    // Grow-only sizing: inbuf.size() is allocated space and in_len the
    // valid prefix, so the zero-fill a per-read resize() would do happens
    // only when the buffer actually grows.
    if (conn.inbuf.size() - conn.in_len < kReadChunk) {
      if (conn.inbuf.capacity() == 0)
        conn.inbuf = BufferPool::acquire(kReadChunk);
      conn.inbuf.resize(conn.in_len + kReadChunk);
    }
    const ssize_t n = ::read(conn.fd, conn.inbuf.data() + conn.in_len,
                             conn.inbuf.size() - conn.in_len);
    if (n > 0) {
      conn.in_len += static_cast<std::size_t>(n);
      continue;  // edge-triggered: drain until EAGAIN
    }
    if (n == 0) {
      peer_gone = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    peer_gone = true;
    break;
  }
  // Extract complete frames from the consumed offset onward. Data payloads
  // accumulate into one batch per read pass (see deliver_batch).
  std::vector<Bytes> batch;
  std::size_t batch_bytes = 0;
  auto flush_batch = [&] {
    if (batch.empty()) return;
    deliver_batch(connp, std::move(batch), batch_bytes);
    batch.clear();
    batch_bytes = 0;
  };
  for (;;) {
    const std::size_t avail = conn.in_len - conn.in_off;
    if (avail < 4) break;
    const std::uint32_t len = get_u32(conn.inbuf.data() + conn.in_off);
    if (len == 0 || static_cast<std::size_t>(len) - 1 > config_.max_frame_bytes) {
      // Corrupt or hostile length: closing beats buffering an unbounded
      // allocation on its behalf.
      frames_rejected_.fetch_add(1, std::memory_order_relaxed);
      SRPC_LOG(WARN) << addr_ << ": rejecting frame of claimed length " << len
                     << " from " << (conn.peer.empty() ? "<unknown>" : conn.peer);
      flush_batch();
      close_conn(r, connp);
      return;
    }
    if (avail - 4 < len) break;
    const std::uint8_t* frame = conn.inbuf.data() + conn.in_off + 4;
    conn.in_off += 4 + len;
    const std::uint8_t marker = frame[0];
    if (marker == kHandshakeMarker) {
      // Flush first: frames parsed before this point belong to the old
      // (possibly empty) peer identity, not the one being announced.
      flush_batch();
      on_handshake(r, connp,
                   Address(reinterpret_cast<const char*>(frame + 1), len - 1));
      continue;
    }
    Bytes payload = BufferPool::acquire(len - 1);
    payload.assign(frame + 1, frame + len);
    batch_bytes += payload.size();
    batch.push_back(std::move(payload));
  }
  flush_batch();
  // Deferred compaction: drop the whole buffer when fully consumed; move
  // the tail down only once the dead prefix dominates.
  if (conn.in_off == conn.in_len) {
    conn.in_off = 0;
    conn.in_len = 0;
    if (conn.inbuf.capacity() > BufferPool::kMaxPooledCapacity) {
      Bytes().swap(conn.inbuf);  // don't pin a huge buffer on an idle conn
    }
  } else if (conn.in_off >= kCompactBytes &&
             conn.in_off > conn.in_len - conn.in_off) {
    std::memmove(conn.inbuf.data(), conn.inbuf.data() + conn.in_off,
                 conn.in_len - conn.in_off);
    conn.in_len -= conn.in_off;
    conn.in_off = 0;
  }
  if (peer_gone) close_conn(r, connp);
}

void TcpTransport::deliver_batch(const ConnPtr& conn,
                                 std::vector<Bytes>&& payloads,
                                 std::size_t payload_bytes) {
  msgs_recv_.fetch_add(payloads.size(), std::memory_order_relaxed);
  bytes_recv_.fetch_add(payload_bytes, std::memory_order_relaxed);
  const Address& src = conn->peer;  // reactor-thread owned
  if (src.empty()) return;  // data before handshake: nothing to attribute
  auto shared = std::make_shared<std::vector<Bytes>>(std::move(payloads));
  conn->strand->post([gate = gate_, src, shared]() mutable {
    // Resolve the receiver at run time, not post time: a stale copy would
    // outlive set_receiver(nullptr) and defeat quiesce().
    Receiver receiver;
    {
      std::lock_guard<std::mutex> lock(gate->mu);
      if (!gate->receiver) return;  // detached: drop
      receiver = gate->receiver;
      ++gate->in_flight;
    }
    for (Bytes& payload : *shared) receiver(src, std::move(payload));
    {
      std::lock_guard<std::mutex> lock(gate->mu);
      --gate->in_flight;
    }
    gate->cv.notify_all();
  });
}

void TcpTransport::on_handshake(Reactor& r, const ConnPtr& connp,
                                Address peer) {
  Conn& conn = *connp;
  conn.peer = peer;
  ConnPtr loser;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_peer_.find(peer);
    if (it == by_peer_.end()) {
      by_peer_.emplace(std::move(peer), connp);
      return;
    }
    if (it->second == connp) return;
    // Simultaneous connect: both nodes dialed each other, so two TCP
    // connections exist for one peer. Both sides deterministically keep the
    // one dialed by the lexicographically lower address; the dialer of the
    // losing connection flushes and closes it (see header).
    const ConnPtr& existing = it->second;
    const Address& winner_dialer = std::min(addr_, it->first);
    const Address& new_dialer = conn.outbound ? addr_ : it->first;
    const Address& old_dialer = existing->outbound ? addr_ : it->first;
    if (new_dialer == winner_dialer && old_dialer != winner_dialer) {
      loser = existing;
      it->second = connp;
    } else {
      loser = connp;
    }
  }
  {
    std::lock_guard<std::mutex> lock(loser->send_mu);
    loser->demoted = true;
    if (!loser->scheduled) loser->scheduled = true;
  }
  // Only the dialer closes the losing connection (after flushing); the
  // accepting side keeps receiving until the peer's close arrives as EOF.
  if (loser->outbound) schedule_conn(loser);
}

void TcpTransport::close_conn(Reactor& r, const ConnPtr& connp) {
  Conn& conn = *connp;
  if (conn.fd < 0) return;
  const int fd = conn.fd;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    r.conns.erase(fd);
  }
  if (conn.epoll_added) epoll_ctl(r.epfd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conn.fd = -1;
  if (!conn.peer.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_peer_.find(conn.peer);
    // Only erase the mapping if it still points at *this* connection: after
    // simultaneous-connect dedup the peer may be mapped to the surviving
    // connection, which must not be unrouted by the loser's close.
    if (it != by_peer_.end() && it->second == connp) by_peer_.erase(it);
  }
  std::uint64_t undelivered = 0;
  {
    std::lock_guard<std::mutex> lock(conn.send_mu);
    conn.closed = true;
    // Queued data frames die with the connection; count them so the loss
    // is observable (the retry layer sees it as a timeout).
    for (std::size_t i = conn.drain_frame; i < conn.draining.size(); ++i)
      if (conn.draining[i].header[4] == kDataMarker) ++undelivered;
    for (const auto& frame : conn.pending)
      if (frame.header[4] == kDataMarker) ++undelivered;
    conn.draining.clear();
    conn.pending.clear();
    conn.drain_frame = 0;
    conn.drain_off = 0;
    conn.pending_bytes = 0;
    conn.draining_bytes = 0;
    conn.send_cv.notify_all();
  }
  if (undelivered > 0)
    send_drops_.fetch_add(undelivered, std::memory_order_relaxed);
  if (conn.inbuf.capacity() > 0) BufferPool::release(std::move(conn.inbuf));
}

}  // namespace srpc

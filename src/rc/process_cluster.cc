#include "rc/process_cluster.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/logging.h"

namespace srpc::rc {
namespace {

std::string exe_dir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  std::string path(buf);
  const auto pos = path.find_last_of('/');
  return pos == std::string::npos ? std::string(".") : path.substr(0, pos);
}

const char* flavor_arg(Flavor f) {
  switch (f) {
    case Flavor::kGrpc: return "grpc";
    case Flavor::kTrad: return "trad";
    case Flavor::kSpec: return "spec";
  }
  return "trad";
}

double field(const std::string& line, const std::string& key) {
  const auto pos = line.find(key + "=");
  if (pos == std::string::npos) return 0;
  return std::strtod(line.c_str() + pos + key.size() + 1, nullptr);
}

std::int64_t us_of(Duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

}  // namespace

std::string ProcessCluster::find_node_binary() {
  if (const char* env = std::getenv("SPECRPC_CLUSTER_NODE_BIN")) {
    if (access(env, X_OK) == 0) return env;
  }
  const std::string dir = exe_dir();
  if (dir.empty()) return {};
  // Same directory (installed layout), then the build tree's src/rc/ as
  // seen from build/tests/ or build/bench/.
  for (const char* rel :
       {"/rc_cluster_node", "/../src/rc/rc_cluster_node",
        "/../../src/rc/rc_cluster_node"}) {
    const std::string candidate = dir + rel;
    if (access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return {};
}

ProcessCluster::ProcessCluster(ProcessClusterConfig config)
    : config_(std::move(config)) {
  binary_ = config_.node_binary.empty() ? find_node_binary()
                                        : config_.node_binary;
}

ProcessCluster::~ProcessCluster() {
  kill_all();
  reap_all(std::chrono::seconds(5));
}

bool ProcessCluster::spawn(const std::vector<std::string>& kv, bool is_client,
                           std::string& error) {
  int to_child[2];    // parent -> child stdin
  int from_child[2];  // child stdout -> parent
  if (pipe(to_child) != 0 || pipe(from_child) != 0) {
    error = "pipe() failed";
    return false;
  }
  // Parent-side ends must not leak into later-forked siblings: a sibling
  // holding an earlier child's stdout write-end keeps that pipe open after
  // the child dies, so the parent never sees EOF and stalls out the full
  // phase deadline instead of failing fast.
  fcntl(to_child[1], F_SETFD, FD_CLOEXEC);
  fcntl(from_child[0], F_SETFD, FD_CLOEXEC);
  const pid_t pid = fork();
  if (pid < 0) {
    error = "fork() failed";
    return false;
  }
  if (pid == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary_.c_str()));
    for (const auto& arg : kv) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    execv(binary_.c_str(), argv.data());
    // Exec failure must not return into the parent's state.
    std::fprintf(stderr, "execv %s: %s\n", binary_.c_str(),
                 std::strerror(errno));
    _exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  Child c;
  c.pid = pid;
  c.to_child = to_child[1];
  c.from_child = from_child[0];
  c.is_client = is_client;
  children_.push_back(std::move(c));
  return true;
}

bool ProcessCluster::read_line(Child& c, std::string& line,
                               TimePoint deadline, std::string* why) {
  for (;;) {
    const auto nl = c.buf.find('\n');
    if (nl != std::string::npos) {
      line = c.buf.substr(0, nl);
      c.buf.erase(0, nl + 1);
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      if (why != nullptr) *why = "deadline expired";
      return false;
    }
    pollfd pfd{c.from_child, POLLIN, 0};
    const int pr = poll(&pfd, 1, static_cast<int>(left.count()));
    if (pr < 0 && errno == EINTR) continue;
    if (pr == 0) {
      if (why != nullptr) *why = "deadline expired";
      return false;
    }
    if (pr < 0) {
      if (why != nullptr) *why = std::string("poll: ") + std::strerror(errno);
      return false;
    }
    char chunk[4096];
    const ssize_t n = read(c.from_child, chunk, sizeof(chunk));
    if (n <= 0) {
      // Child died or closed stdout: fail fast with its fate instead of
      // waiting out the phase deadline.
      if (why != nullptr) *why = "child pipe EOF (" + child_status(c) + ")";
      return false;
    }
    c.buf.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string ProcessCluster::child_status(Child& c) {
  if (c.pid <= 0) return "already reaped";
  // Give a just-died child a moment to become reapable.
  for (int i = 0; i < 20; ++i) {
    int status = 0;
    const pid_t r = waitpid(c.pid, &status, WNOHANG);
    if (r == c.pid) {
      c.pid = -1;
      if (WIFEXITED(status)) {
        return "exit status " + std::to_string(WEXITSTATUS(status));
      }
      if (WIFSIGNALED(status)) {
        return "killed by signal " + std::to_string(WTERMSIG(status));
      }
      return "exited";
    }
    if (r < 0) return std::string("waitpid: ") + std::strerror(errno);
    usleep(10'000);
  }
  return "still running with stdout closed";
}

bool ProcessCluster::write_line(Child& c, const std::string& line) {
  const std::string out = line + "\n";
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = write(c.to_child, out.data() + off, out.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void ProcessCluster::kill_all() {
  for (auto& c : children_) {
    if (c.pid > 0) kill(c.pid, SIGKILL);
  }
}

void ProcessCluster::reap_all(Duration grace) {
  const TimePoint deadline = Clock::now() + grace;
  for (auto& c : children_) {
    if (c.pid <= 0) continue;
    for (;;) {
      int status = 0;
      const pid_t r = waitpid(c.pid, &status, WNOHANG);
      if (r == c.pid) break;
      if (r < 0) break;
      if (Clock::now() >= deadline) {
        kill(c.pid, SIGKILL);
        waitpid(c.pid, &status, 0);
        break;
      }
      usleep(10'000);
    }
    if (c.to_child >= 0) ::close(c.to_child);
    if (c.from_child >= 0) ::close(c.from_child);
    c.pid = -1;
    c.to_child = -1;
    c.from_child = -1;
  }
  children_.clear();
}

ProcessClusterResult ProcessCluster::run() {
  ProcessClusterResult result;
  if (binary_.empty()) {
    result.error = "rc_cluster_node binary not found";
    return result;
  }
  // A child dying mid-protocol turns the parent's next write into EPIPE;
  // we want the read_line timeout path, not a signal.
  signal(SIGPIPE, SIG_IGN);

  auto common_args = [&](int dc) {
    // The WAN stand-in: servers outside DC 0 charge scaled service times
    // (see remote_cost_mult in the header).
    const double mult = dc == 0 ? 1.0 : config_.remote_cost_mult;
    auto scaled = [&](Duration d) {
      return std::to_string(
          static_cast<std::int64_t>(static_cast<double>(us_of(d)) * mult));
    };
    std::vector<std::string> kv = {
        std::string("dc=") + std::to_string(dc),
        std::string("flavor=") + flavor_arg(config_.flavor),
        "num_dcs=" + std::to_string(config_.num_dcs),
        "num_shards=" + std::to_string(config_.num_shards),
        "clients_per_dc=" + std::to_string(config_.clients_per_dc),
        "read_quorum=" + std::to_string(config_.read_quorum),
        "vote_quorum=" + std::to_string(config_.vote_quorum),
        "num_keys=" + std::to_string(config_.num_keys),
        "value_size=" + std::to_string(config_.value_size),
        "server_cores=" + std::to_string(config_.server_cores),
        "read_us=" + scaled(config_.costs.read),
        "prepare_us=" + scaled(config_.costs.prepare),
        "apply_us=" + scaled(config_.costs.apply),
        "commit_us=" + scaled(config_.costs.commit),
        "grpc_overhead_us=" + std::to_string(config_.grpc_overhead_us),
        "workload=" + config_.workload,
        "ops_per_txn=" + std::to_string(config_.ops_per_txn),
        "read_fraction=" + std::to_string(config_.read_fraction),
        "batch_mode=" + config_.batch_mode,
        "txns_per_epoch=" + std::to_string(config_.txns_per_epoch),
        "adaptive_batch=" + std::to_string(config_.adaptive_batch ? 1 : 0),
        "min_epoch=" + std::to_string(config_.min_epoch),
        "max_epoch=" + std::to_string(config_.max_epoch),
        "hot_keys=" + std::to_string(config_.hot_keys),
        "hot_fraction=" + std::to_string(config_.hot_fraction),
        "cross_fraction=" + std::to_string(config_.cross_fraction),
        "seed=" + std::to_string(config_.seed),
        "warmup_ms=" +
            std::to_string(std::chrono::duration_cast<std::chrono::milliseconds>(
                               config_.warmup)
                               .count()),
        "measure_ms=" +
            std::to_string(std::chrono::duration_cast<std::chrono::milliseconds>(
                               config_.measure)
                               .count()),
    };
    return kv;
  };

  for (int dc = 0; dc < config_.num_dcs; ++dc) {
    auto kv = common_args(dc);
    kv.push_back("role=server");
    if (!spawn(kv, /*is_client=*/false, result.error)) {
      kill_all();
      reap_all(std::chrono::seconds(2));
      return result;
    }
  }
  for (int dc = 0; dc < config_.num_dcs; ++dc) {
    auto kv = common_args(dc);
    kv.push_back("role=client");
    if (!spawn(kv, /*is_client=*/true, result.error)) {
      kill_all();
      reap_all(std::chrono::seconds(2));
      return result;
    }
  }

  auto fail = [&](const std::string& why) {
    result.ok = false;
    result.error = why;
    kill_all();
    reap_all(std::chrono::seconds(5));
    return result;
  };

  // Phase 1: collect ADDRS from every child (servers announce their four
  // listening endpoints; clients answer "ADDRS -" to keep the barrier
  // uniform), then broadcast the full TCP topology.
  TimePoint deadline = Clock::now() + config_.phase_timeout;
  std::vector<std::string> topo_addrs;  // dc-major: s0..sN-1 coord per DC
  for (auto& c : children_) {
    std::string line, why;
    if (!read_line(c, line, deadline, &why))
      return fail("waiting ADDRS: " + why);
    if (line.rfind("ADDRS", 0) != 0) return fail("bad ADDRS line: " + line);
    if (c.is_client) continue;
    std::istringstream in(line.substr(5));
    std::string addr;
    while (in >> addr) topo_addrs.push_back(addr);
  }
  if (topo_addrs.size() != static_cast<std::size_t>(config_.num_dcs) *
                               static_cast<std::size_t>(config_.num_shards + 1)) {
    return fail("wrong topology size from servers");
  }
  std::string topo_line = "TOPOLOGY";
  for (const auto& addr : topo_addrs) topo_line += " " + addr;
  for (auto& c : children_) {
    if (!write_line(c, topo_line)) return fail("child died before TOPOLOGY");
  }

  // Phase 2: readiness barrier, then start the measured run everywhere.
  deadline = Clock::now() + config_.phase_timeout;
  for (auto& c : children_) {
    std::string line, why;
    if (!read_line(c, line, deadline, &why))
      return fail("waiting READY: " + why);
    if (line != "READY") return fail("bad READY line: " + line);
  }
  for (auto& c : children_) {
    if (!write_line(c, "RUN")) return fail("child died before RUN");
  }

  // Phase 3: client RESULT lines. Allow the workload duration on top of the
  // protocol timeout.
  deadline = Clock::now() + config_.phase_timeout + config_.warmup +
             config_.measure;
  double mean_weight = 0, commit_weight = 0;
  for (auto& c : children_) {
    if (!c.is_client) continue;
    std::string line, why;
    if (!read_line(c, line, deadline, &why))
      return fail("waiting RESULT: " + why);
    if (line.rfind("RESULT", 0) != 0) return fail("bad RESULT line: " + line);
    const double committed = field(line, "committed");
    result.committed += static_cast<std::uint64_t>(committed);
    result.aborted += static_cast<std::uint64_t>(field(line, "aborted"));
    result.read_only += static_cast<std::uint64_t>(field(line, "read_only"));
    result.failed += static_cast<std::uint64_t>(field(line, "failed"));
    result.elapsed_s = std::max(result.elapsed_s, field(line, "elapsed_s"));
    result.mean_txn_ms += committed * field(line, "mean_us") / 1000.0;
    result.p50_txn_ms += committed * field(line, "p50_us") / 1000.0;
    result.p99_txn_ms =
        std::max(result.p99_txn_ms, field(line, "p99_us") / 1000.0);
    mean_weight += committed;
    const double commits = field(line, "commit_count");
    result.mean_commit_ms += commits * field(line, "commit_mean_us") / 1000.0;
    commit_weight += commits;
    result.adaptive_epochs +=
        static_cast<std::uint64_t>(field(line, "adaptive_epochs"));
    result.mode_flips += static_cast<std::uint64_t>(field(line, "mode_flips"));
    result.probes += static_cast<std::uint64_t>(field(line, "probes"));
    result.grows += static_cast<std::uint64_t>(field(line, "grows"));
    result.shrinks += static_cast<std::uint64_t>(field(line, "shrinks"));
  }
  if (mean_weight > 0) {
    result.mean_txn_ms /= mean_weight;
    result.p50_txn_ms /= mean_weight;
  }
  if (commit_weight > 0) result.mean_commit_ms /= commit_weight;

  // Phase 4: cooperative teardown.
  for (auto& c : children_) write_line(c, "QUIT");
  reap_all(std::chrono::seconds(20));
  result.ok = true;
  return result;
}

}  // namespace srpc::rc

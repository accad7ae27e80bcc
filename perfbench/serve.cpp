// `serve`: open-loop Poisson job arrivals over loopback TCP to an in-process
// Server, stepped through a fixed ladder of rates, each step followed by
// blocks of jobs sent one at a time (closed loop), then one more step to a
// Server in a child process for peak memory. The only workload that puts
// net, service, cache, msa parsing, per-job session setup, the batched AIO
// path and the Prefetcher on the blocking path.
//
// Job mix (FASTA files written at setup): ~60% dna-small (48×400, in RAM,
// dominated by setup), ~25% dna-ooc (128×600 at f = 0.25, LRU), ~15% protein
// (20-state, in RAM); three tenants with unequal weights; ~25% of jobs repeat
// an earlier tree (Zipf), so the result cache hits without owning the median.
#include <malloc.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common.hpp"
#include "msa/fasta.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "ooc/prefetch.hpp"
#include "service/jobfile.hpp"
#include "sim/dataset_planner.hpp"
#include "sim/simulate.hpp"
#include "tree/phylo2vec.hpp"
#include "tree/random_tree.hpp"

namespace perfbench {
namespace {

using namespace plfoc;

// --- the traffic ------------------------------------------------------------

struct JobClass {
  const char* name;
  std::size_t taxa;
  std::size_t sites;
  bool protein;
  bool out_of_core;
  double share;  ///< of all jobs
};

constexpr std::array<JobClass, 3> kClasses = {{
    {"dna-small", 48, 400, false, false, 0.60},
    {"dna-ooc", 128, 600, false, true, 0.25},
    {"protein", 24, 200, true, false, 0.15},
}};
constexpr double kRamFraction = 0.25;

struct Tenant {
  const char* name;
  unsigned weight;  ///< DRR weight at the server
  double share;     ///< of all jobs
};
constexpr std::array<Tenant, 3> kTenants = {{
    {"tenant-a", 3, 0.5}, {"tenant-b", 2, 0.3}, {"tenant-c", 1, 0.2}}};

constexpr double kRepeatShare = 0.25;
constexpr double kZipfExponent = 1.1;

// The server: 2 workers × 1 kernel thread, result cache on, thread-pool AIO
// at a small depth, prefetch lookahead on for out-of-core jobs.
constexpr std::size_t kWorkers = 2;
constexpr unsigned kIoDepth = 4;
constexpr std::size_t kLookahead = 4;
constexpr std::size_t kCacheEntries = 4096;
constexpr std::size_t kQueueCapacity = 8192;

// The rate ladder, fixed once (absolute jobs/s). `share` is the fraction of
// --seconds a step's arrivals span. The middle step, at about a quarter of
// capacity, is long enough for >= 10 samples beyond p99; the top step offers
// more than the capacity (about 150-670 jobs/s on the reference host, with
// its steal time). The ladder's latencies and the highest step that meets
// the p99 limit are printed as notes: a saturated two-worker server on a
// shared 4-vCPU host moved too much with the host's steal time (ten-seed
// spreads of its capacity 0.23-0.37) for an end-to-end metric.
struct Step {
  double rate;
  double share;
};
constexpr std::array<Step, 4> kLadder = {{
    {50.0, 0.07}, {100.0, 0.35}, {200.0, 0.10}, {400.0, 0.05}}};
constexpr std::size_t kMiddleStep = 1;
// wall_s: jobs sent one at a time (closed loop, one job in flight), in
// blocks of kSerialBlockJobs after every ladder step so that they sample the
// host over the whole run. A block is one stratified block of the job
// sequence, so every block carries the same class mix.
constexpr std::size_t kSerialBlocksPerStep = 24;
constexpr std::size_t kSerialBlockJobs = 20;
constexpr double kP99LimitMs = 250.0;
// peak_rss_mb comes from a step of its own after the ladder, at the middle
// step's rate, served by a Server in a child process (see ServerProcess).
constexpr Step kRssStep = {100.0, 0.10};
constexpr int kMmapThresholdBytes = 128 * 1024;  // glibc's initial value
// setup_s: groups of cold starts spread over the run (after the reference
// evaluations and after every ladder step), so the median samples the host
// over the whole run rather than one instant. A cold start is: start a
// Server, wait until it answers a ping, then submit the first job of each
// class one at a time and wait for its answer. Start and ping alone take
// about 0.4 ms of thread creation and cross-thread wake-ups, which moved by
// a factor of two with the host's steal time (five-seed spread 0.46); the
// first answers add about 30 ms of parsing, session setup and evaluation.
constexpr int kSetupsPerGroup = 10;

// --- inputs -----------------------------------------------------------------

struct Job {
  std::size_t klass;
  std::size_t tenant;
  std::size_t distinct;  ///< index into Inputs::distinct
};

struct DistinctJob {
  std::size_t klass;
  Phylo2Vec tree;
  std::uint64_t logl_bits = 0;  ///< reference, filled at setup
};

struct Inputs {
  std::array<std::string, kClasses.size()> fasta;
  std::vector<DistinctJob> distinct;
  std::vector<Job> jobs;
};

JobFileEntry entry_for(const Inputs& inputs, std::size_t klass) {
  const JobClass& c = kClasses[klass];
  JobFileEntry entry;
  entry.msa_path = inputs.fasta[klass];
  entry.tree_path = "-";
  entry.data_type = c.protein ? "protein" : "dna";
  entry.model = c.protein ? "poisson" : "gtr";
  entry.backend = c.out_of_core ? "ooc" : "inram";
  entry.ram_fraction = c.out_of_core ? kRamFraction : 0.0;
  entry.strategy = "lru";
  entry.name = c.name;
  return entry;
}

SubmitRequest request_for(const Inputs& inputs, const Job& job,
                          std::uint64_t request_id) {
  const JobFileEntry entry = entry_for(inputs, job.klass);
  const Phylo2Vec& tree = inputs.distinct[job.distinct].tree;
  SubmitRequest request;
  request.request_id = request_id;
  request.tenant = kTenants[job.tenant].name;
  request.name = entry.name;
  request.msa_path = entry.msa_path;
  request.data_type = entry.data_type;
  request.model = entry.model;
  request.backend = entry.backend;
  request.ram_fraction = entry.ram_fraction;
  request.strategy = entry.strategy;
  request.tree_kind = WireTreeKind::kPhylo2Vec;
  request.tree_v = tree.v;
  request.tree_lengths = tree.lengths;
  request.taxa_digest = phylo2vec_taxa_digest(tree.taxa);
  return request;
}

/// Stratified draws: every block of `kBlock` consecutive draws holds each
/// item round(share × kBlock) times, in shuffled order, so the mix of a
/// run's jobs does not drift with the seed.
template <typename T, std::size_t N>
class Stratified {
 public:
  static constexpr std::size_t kBlock = 20;
  explicit Stratified(const std::array<T, N>& items) {
    for (std::size_t i = 0; i < N; ++i) {
      const auto copies =
          static_cast<std::size_t>(std::lround(items[i].share * kBlock));
      block_.insert(block_.end(), copies, i);
    }
  }
  std::size_t next(Rng& rng) {
    if (used_ == block_.size()) {
      for (std::size_t i = block_.size(); i > 1; --i)
        std::swap(block_[i - 1], block_[rng.below(i)]);
      used_ = 0;
    }
    return block_[used_++];
  }

 private:
  std::vector<std::size_t> block_;
  std::size_t used_ = 0;
};

std::size_t zipf_rank(Rng& rng, std::size_t n) {
  double total = 0.0;
  for (std::size_t k = 1; k <= n; ++k)
    total += 1.0 / std::pow(static_cast<double>(k), kZipfExponent);
  double u = rng.uniform() * total;
  for (std::size_t k = 1; k <= n; ++k) {
    u -= 1.0 / std::pow(static_cast<double>(k), kZipfExponent);
    if (u <= 0.0) return k - 1;
  }
  return n - 1;
}

/// Alignments of every class, and a job sequence of `count` jobs.
Inputs make_inputs(const Args& args, std::size_t count) {
  Inputs inputs;
  Rng rng(args.seed);
  for (std::size_t k = 0; k < kClasses.size(); ++k) {
    const JobClass& c = kClasses[k];
    Tree truth = random_tree(c.taxa, rng);
    const SubstitutionModel model =
        c.protein ? poisson_protein() : benchmark_gtr();
    inputs.fasta[k] = work_path(args, std::string(c.name) + ".fasta");
    write_fasta_file(inputs.fasta[k],
                     simulate_alignment(truth, model, c.sites, rng));
  }
  std::array<std::vector<std::size_t>, kClasses.size()> seen;
  std::array<std::size_t, kClasses.size()> drawn{};
  Stratified classes(kClasses);
  Stratified tenants(kTenants);
  for (std::size_t i = 0; i < count; ++i) {
    Job job{};
    job.klass = classes.next(rng);
    job.tenant = tenants.next(rng);
    std::vector<std::size_t>& earlier = seen[job.klass];
    // Every 1/kRepeatShare-th job of a class repeats an earlier one.
    const bool repeat =
        ++drawn[job.klass] % static_cast<std::size_t>(1.0 / kRepeatShare) == 0;
    if (repeat && !earlier.empty()) {
      job.distinct = earlier[zipf_rank(rng, earlier.size())];
    } else {
      job.distinct = inputs.distinct.size();
      earlier.push_back(job.distinct);
      inputs.distinct.push_back(
          {job.klass,
           phylo2vec_encode(random_tree(kClasses[job.klass].taxa, rng)), 0});
    }
    inputs.jobs.push_back(job);
  }
  return inputs;
}


// --- reference results ------------------------------------------------------

/// The Session a server worker builds for `job`'s spec, with the service's
/// defaults applied: thread-pool AIO at kIoDepth for out-of-core jobs.
JobSpec spec_for(const Inputs& inputs, const DistinctJob& job,
                 const Alignment& alignment) {
  JobSpec spec = make_job_spec(entry_for(inputs, job.klass), alignment,
                               phylo2vec_decode(job.tree));
  if (kClasses[job.klass].out_of_core) {
    spec.session.io_engine = AioEngineKind::kThreads;
    spec.session.io_depth = kIoDepth;
  }
  return spec;
}

/// Evaluates every distinct job in process (Session::evaluate of the same
/// spec the server builds) and records its logL bits. Out-of-core jobs run
/// with the server's prefetch lookahead under the HDD device model; their
/// modeled device seconds are returned (device_s).
std::vector<double> compute_references(const Args& args, Inputs& inputs) {
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::vector<double>> device(threads);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> team;
  std::mutex error_mutex;
  std::string error;
  for (unsigned t = 0; t < threads; ++t) {
    team.emplace_back([&, t] {
      try {
        std::array<Alignment, kClasses.size()> alignments;
        for (std::size_t k = 0; k < kClasses.size(); ++k)
          alignments[k] = load_entry_alignment(entry_for(inputs, k));
        const std::string vector_file =
            work_path(args, "reference-" + std::to_string(t) + ".vectors");
        for (std::size_t i = next++; i < inputs.distinct.size(); i = next++) {
          DistinctJob& job = inputs.distinct[i];
          JobSpec spec = spec_for(inputs, job, alignments[job.klass]);
          const bool ooc = kClasses[job.klass].out_of_core;
          if (ooc) {
            spec.session.device = DeviceModel::hdd_2010();
            spec.session.vector_file = vector_file;
          }
          Session session(std::move(spec.alignment), std::move(spec.tree),
                          std::move(spec.model), spec.session);
          std::unique_ptr<Prefetcher> prefetcher;
          if (ooc) {
            prefetcher = std::make_unique<Prefetcher>(*session.out_of_core(),
                                                      kLookahead);
            session.engine().attach_prefetcher(prefetcher.get());
          }
          job.logl_bits = bits(session.evaluate().log_likelihood);
          if (ooc) {
            prefetcher->stop();
            device[t].push_back(
                session.out_of_core()->file().modeled_device_seconds());
          }
        }
        std::remove(vector_file.c_str());
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mutex);
        error = e.what();
      }
    });
  }
  for (std::thread& thread : team) thread.join();
  if (!error.empty()) throw std::runtime_error("reference: " + error);
  std::vector<double> all;
  for (const std::vector<double>& part : device)
    all.insert(all.end(), part.begin(), part.end());
  return all;
}

// --- the server -------------------------------------------------------------

ServerOptions server_options() {
  ServerOptions options = loopback_server_options(kWorkers, kQueueCapacity);
  options.service.kernel_threads = 1;
  options.service.result_cache_entries = kCacheEntries;
  options.service.io_engine = AioEngineKind::kThreads;
  options.service.io_depth = kIoDepth;
  options.service.prefetch_lookahead = kLookahead;
  for (const Tenant& tenant : kTenants)
    options.service.tenants[tenant.name].weight = tenant.weight;
  return options;
}

/// What setup_s times: start the Server and wait until it answers a ping.
std::unique_ptr<Server> start_server() {
  auto server = std::make_unique<Server>(server_options());
  server->start();
  BlockingClient("127.0.0.1", server->port()).ping();
  return server;
}

/// The rest of a cold start: `jobs` (one per class) sent one at a time to a
/// fresh server. Returns how many were not kDone with the reference logL.
std::size_t first_answers(const Server& server, const Inputs& inputs,
                          const std::vector<Job>& jobs) {
  BlockingClient client("127.0.0.1", server.port());
  std::size_t failed = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    client.submit(request_for(inputs, jobs[i], i + 1));
    const ClientResponse response = client.wait(i + 1);
    const bool ok =
        response.result &&
        response.result->status ==
            static_cast<std::uint8_t>(JobStatus::kDone) &&
        response.result->logl_bits ==
            inputs.distinct[jobs[i].distinct].logl_bits;
    if (!ok) ++failed;
  }
  return failed;
}

/// A Server in a child process, forked while the benchmark is still
/// single-threaded, for peak_rss_mb. The child's resident high-water mark
/// covers one server and its traffic only: not the generator, the inputs,
/// the reference evaluations, nor what earlier phases left cached in the
/// allocator, which moved an in-process peak between 34 and 92 MiB on runs
/// of one seed. The child also pins glibc's mmap threshold at its initial
/// value: by default glibc raises it after the first large free, and later
/// session buffers (2-3 MiB each) then stay cached in whichever malloc arena
/// served them, which still moved a fresh server's peak between 21 and
/// 30 MiB; pinned, every buffer returns to the system with its session and
/// the peak follows the memory the server holds (about 11 MiB, within 2%).
class ServerProcess {
 public:
  ServerProcess() {
    int down[2], up[2];
    if (::pipe(down) != 0) throw std::runtime_error("pipe failed");
    if (::pipe(up) != 0) {
      ::close(down[0]);
      ::close(down[1]);
      throw std::runtime_error("pipe failed");
    }
    std::fflush(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::close(down[1]);
      ::close(up[0]);
      child(down[0], up[1]);
    }
    ::close(down[0]);
    ::close(up[1]);
    to_child_ = down[1];
    from_child_ = up[0];
    if (pid_ < 0) {
      finish();
      throw std::runtime_error("fork failed");
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  /// Closing the pipes makes a child that still waits exit; then reap it.
  ~ServerProcess() { finish(); }

  /// Starts the child's server; returns its port.
  std::uint16_t start() {
    signal();
    std::uint16_t port = 0;
    receive(from_child_, &port, sizeof port);
    return port;
  }
  /// Stops the child's server and the child; returns the child's peak
  /// resident memory in MiB.
  double stop() {
    signal();
    double peak = 0.0;
    receive(from_child_, &peak, sizeof peak);
    finish();
    return peak;
  }

 private:
  [[noreturn]] static void child(int in, int out) {
    int status = 1;
    try {
      char go = 0;
      if (::read(in, &go, 1) == 1) {
        mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
        const std::unique_ptr<Server> server = start_server();
        const std::uint16_t port = server->port();
        send(out, &port, sizeof port);
        if (::read(in, &go, 1) == 1) {
          server->stop();
          const double peak = peak_rss_mb();
          send(out, &peak, sizeof peak);
        }
      }
      status = 0;
    } catch (const std::exception&) {
    }
    ::_exit(status);
  }
  static void send(int fd, const void* data, std::size_t size) {
    if (::write(fd, data, size) != static_cast<ssize_t>(size))
      throw std::runtime_error("pipe write failed");
  }
  static void receive(int fd, void* data, std::size_t size) {
    if (::read(fd, data, size) != static_cast<ssize_t>(size))
      throw std::runtime_error("server process ended early");
  }
  void signal() {
    const char go = 1;
    send(to_child_, &go, 1);
  }
  void finish() {
    if (to_child_ >= 0) ::close(to_child_);
    if (from_child_ >= 0) ::close(from_child_);
    to_child_ = from_child_ = -1;
    if (pid_ > 0) {
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

// --- traffic generators -----------------------------------------------------

struct Sample {
  double due = 0.0;       ///< when the job was due to be sent
  double sent = 0.0;      ///< when its frame was handed to the socket
  double received = 0.0;  ///< when its answer frame was decoded
  bool answered = false;
  bool ok = false;    ///< kDone with the reference logL
  bool busy = false;  ///< rejected with kBusy
  std::uint8_t flags = 0;
  double queue_s = 0.0;
  double run_s = 0.0;
};

struct Traffic {
  std::vector<Sample> samples;
  double start = 0.0;
  std::vector<double> encode_us;  ///< traced only
  std::vector<double> decode_us;  ///< traced only

  double last_received() const {
    double last = start;
    for (const Sample& s : samples) last = std::max(last, s.received);
    return last;
  }
  double last_due() const {
    double last = start;
    for (const Sample& s : samples) last = std::max(last, s.due);
    return last;
  }
  std::size_t failed() const {
    return static_cast<std::size_t>(std::count_if(
        samples.begin(), samples.end(),
        [](const Sample& s) { return !s.ok; }));
  }
  /// Latency from due time to answer, ms.
  std::vector<double> latency_ms() const {
    std::vector<double> out;
    for (const Sample& s : samples) out.push_back((s.received - s.due) * 1e3);
    return out;
  }
};

/// Shuts a socket down if the traffic on it is not done within `seconds`,
/// so a wedged server fails the run instead of hanging it.
class Watchdog {
 public:
  Watchdog(int fd, double seconds)
      : thread_([this, fd, seconds] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!done_cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                                 [&] { return done_; }))
            ::shutdown(fd, SHUT_RDWR);
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    done_cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

/// Encoded submit frames for `jobs`, with request ids from `base` on.
std::vector<std::vector<std::uint8_t>> encode_jobs(
    const Inputs& inputs, const std::vector<Job>& jobs, bool traced,
    std::uint64_t base, Traffic& traffic) {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SubmitRequest request = request_for(inputs, jobs[i], base + i);
    const double mark = now_s();
    frames.push_back(encode_submit_request(request));
    if (traced) traffic.encode_us.push_back((now_s() - mark) * 1e6);
  }
  return frames;
}

/// Files one frame received at `at` into `traffic`. Returns whether it
/// answered one of `jobs` (request ids base .. base + jobs.size() - 1).
bool file_answer(const Frame& frame, double at, const Inputs& inputs,
                 const std::vector<Job>& jobs, std::uint64_t base,
                 bool traced, Traffic& traffic) {
  if (frame.type == MessageType::kResultResponse) {
    const double mark = now_s();
    const ResultResponse result = decode_result_response(frame);
    if (traced) traffic.decode_us.push_back((now_s() - mark) * 1e6);
    if (result.request_id < base || result.request_id - base >= jobs.size())
      return false;
    const std::size_t index = result.request_id - base;
    Sample& sample = traffic.samples[index];
    sample.received = at;
    sample.answered = true;
    sample.flags = result.flags;
    sample.queue_s = result.queue_seconds;
    sample.run_s = result.wall_seconds;
    sample.ok =
        result.status == static_cast<std::uint8_t>(JobStatus::kDone) &&
        result.logl_bits == inputs.distinct[jobs[index].distinct].logl_bits;
    return true;
  }
  if (frame.type == MessageType::kErrorResponse) {
    const ErrorResponse error = decode_error_response(frame);
    if (error.request_id < base || error.request_id - base >= jobs.size())
      return false;
    Sample& sample = traffic.samples[error.request_id - base];
    sample.received = at;
    sample.answered = true;
    sample.busy = error.code == WireErrorCode::kBusy;
    return true;
  }
  return false;
}

/// Receives on `socket` until every job is answered or the connection ends,
/// calling `on_answer` after each answer; unanswered jobs end at the
/// current time (and count as failed).
template <typename OnAnswer>
void collect_answers(Socket& socket, const Inputs& inputs,
                     const std::vector<Job>& jobs, std::uint64_t base,
                     bool traced, Traffic& traffic, OnAnswer on_answer) {
  FrameDecoder decoder;
  std::vector<std::uint8_t> buffer(1 << 16);
  std::size_t answered = 0;
  try {
    while (answered < jobs.size()) {
      const std::size_t got = socket.recv_some(buffer.data(), buffer.size());
      if (got == 0) break;
      decoder.append(buffer.data(), got);
      while (std::optional<Frame> frame = decoder.next()) {
        if (file_answer(*frame, now_s(), inputs, jobs, base, traced,
                        traffic)) {
          ++answered;
          on_answer();
        }
      }
    }
  } catch (const std::exception&) {
    // Connection lost: the unanswered jobs count as failed.
  }
  const double end = now_s();
  for (Sample& sample : traffic.samples)
    if (!sample.answered) sample.received = end;
}

/// Sends jobs[i] at start + offsets[i] on one connection (sender thread) and
/// collects every answer (this thread).
Traffic run_traffic(std::uint16_t port, const Inputs& inputs,
                    const std::vector<Job>& jobs,
                    const std::vector<double>& offsets, bool traced,
                    std::uint64_t& next_request_id) {
  Traffic traffic;
  traffic.samples.resize(jobs.size());
  const std::uint64_t base = next_request_id;
  next_request_id += jobs.size();
  const std::vector<std::vector<std::uint8_t>> frames =
      encode_jobs(inputs, jobs, traced, base, traffic);

  Socket socket = Socket::connect_to("127.0.0.1", port);
  const Clock::time_point start_point =
      Clock::now() + std::chrono::milliseconds(10);
  traffic.start =
      std::chrono::duration<double>(start_point.time_since_epoch()).count();
  std::thread sender([&] {
    try {
      for (std::size_t i = 0; i < frames.size(); ++i) {
        std::this_thread::sleep_until(
            start_point + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(offsets[i])));
        traffic.samples[i].due = traffic.start + offsets[i];
        traffic.samples[i].sent = now_s();
        socket.send_all(frames[i].data(), frames[i].size());
      }
    } catch (const std::exception&) {
      // The connection broke: wake the receiver; unanswered jobs fail.
      ::shutdown(socket.fd(), SHUT_RDWR);
    }
  });
  {
    Watchdog watchdog(socket.fd(),
                      (offsets.empty() ? 0.0 : offsets.back()) + 60.0);
    collect_answers(socket, inputs, jobs, base, traced, traffic, [] {});
  }
  ::shutdown(socket.fd(), SHUT_RDWR);  // unblocks a sender stuck in send
  sender.join();
  return traffic;
}

/// Closed loop on one connection, from this thread alone: keeps `in_flight`
/// jobs outstanding and sends the next one as each answer arrives, so the
/// server is never offered more than it is serving. A job is due when sent.
Traffic run_closed_loop(std::uint16_t port, const Inputs& inputs,
                        const std::vector<Job>& jobs, std::size_t in_flight,
                        std::uint64_t& next_request_id) {
  Traffic traffic;
  traffic.samples.resize(jobs.size());
  const std::uint64_t base = next_request_id;
  next_request_id += jobs.size();
  const std::vector<std::vector<std::uint8_t>> frames =
      encode_jobs(inputs, jobs, false, base, traffic);

  Socket socket = Socket::connect_to("127.0.0.1", port);
  std::size_t sent = 0;
  auto send_next = [&] {
    if (sent == frames.size()) return;
    Sample& sample = traffic.samples[sent];
    sample.due = sample.sent = now_s();
    socket.send_all(frames[sent].data(), frames[sent].size());
    ++sent;
  };
  traffic.start = now_s();
  Watchdog watchdog(socket.fd(), 60.0);
  try {
    while (sent < std::min(in_flight, frames.size())) send_next();
  } catch (const std::exception&) {
    ::shutdown(socket.fd(), SHUT_RDWR);  // unanswered jobs fail below
  }
  collect_answers(socket, inputs, jobs, base, false, traffic, [&] {
    send_next();  // a send failure ends the loop with the rest unanswered
  });
  return traffic;
}

/// `count` arrival offsets of a Poisson process over [0, seconds): given the
/// count, the arrival times are uniform order statistics.
std::vector<double> poisson_offsets(Rng& rng, std::size_t count,
                                    double seconds) {
  std::vector<double> offsets(count);
  for (double& offset : offsets) offset = rng.uniform() * seconds;
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

struct StepResult {
  double rate = 0.0;
  std::size_t jobs = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double drain_ms = 0.0;
  std::size_t failed = 0;
  double wall_s = 0.0;    ///< from the step's start to its last answer
  double achieved = 0.0;  ///< jobs per second over wall_s
  bool meets_limit = false;
};

/// Per-class latency p50/p99 of a traffic sample, for the notes.
std::string class_breakdown(const Traffic& traffic,
                            const std::vector<Job>& jobs) {
  const std::vector<double> all = traffic.latency_ms();
  std::string line = "  by class:";
  for (std::size_t k = 0; k < kClasses.size(); ++k) {
    std::vector<double> latency;
    for (std::size_t i = 0; i < jobs.size(); ++i)
      if (jobs[i].klass == k) latency.push_back(all[i]);
    char part[120];
    std::snprintf(part, sizeof part, " %s n=%zu p50 %.2f p99 %.2f;",
                  kClasses[k].name, latency.size(), quantile(latency, 0.5),
                  quantile(latency, 0.99));
    line += part;
  }
  return line;
}

StepResult summarize(const Traffic& traffic, double rate) {
  StepResult step;
  step.rate = rate;
  step.jobs = traffic.samples.size();
  const std::vector<double> latency = traffic.latency_ms();
  step.p50_ms = quantile(latency, 0.5);
  step.p99_ms = quantile(latency, 0.99);
  step.drain_ms = (traffic.last_received() - traffic.last_due()) * 1e3;
  step.failed = traffic.failed();
  step.wall_s = traffic.last_received() - traffic.start;
  step.achieved = static_cast<double>(step.jobs) / step.wall_s;
  // A growing backlog shows as a drain after the last arrival longer than
  // the latency limit.
  step.meets_limit = step.failed == 0 && step.p99_ms <= kP99LimitMs &&
                     step.drain_ms <= kP99LimitMs;
  return step;
}

std::string describe(const StepResult& step) {
  char line[200];
  std::snprintf(line, sizeof line,
                "serve: %6.1f jobs/s x %zu jobs: p50 %.2f ms, p99 %.2f ms, "
                "drain %.1f ms, failed %zu, achieved %.1f jobs/s -> %s",
                step.rate, step.jobs, step.p50_ms, step.p99_ms, step.drain_ms,
                step.failed, step.achieved,
                step.meets_limit ? "meets limit" : "over limit");
  return line;
}

std::size_t jobs_for(const Step& step, double seconds) {
  return static_cast<std::size_t>(std::llround(step.rate * step.share *
                                               seconds));
}

// --- traced measurements ----------------------------------------------------

/// session.*, msa.* and likelihood.* / ooc.* from direct calls into the
/// layers on each class's inputs.
void direct_layer_metrics(const Args& args, const Inputs& inputs,
                          Outcome& out) {
  constexpr std::size_t kPerClass = 10;
  std::array<std::size_t, kClasses.size()> patterns{};
  for (std::size_t k = 0; k < kClasses.size(); ++k) {
    const std::string klass = kClasses[k].name;
    const JobFileEntry entry = entry_for(inputs, k);
    std::vector<double> parse_ms;
    Alignment alignment;
    for (std::size_t i = 0; i < kPerClass; ++i) {
      const double mark = now_s();
      alignment = load_entry_alignment(entry);
      parse_ms.push_back((now_s() - mark) * 1e3);
    }
    out.set("msa.parse_ms." + klass, median(parse_ms));

    std::vector<double> construct_ms, evaluate_ms;
    for (const DistinctJob& job : inputs.distinct) {
      if (job.klass != k || construct_ms.size() == kPerClass) continue;
      JobSpec spec = spec_for(inputs, job, alignment);
      double mark = now_s();
      Session session(std::move(spec.alignment), std::move(spec.tree),
                      std::move(spec.model), spec.session);
      construct_ms.push_back((now_s() - mark) * 1e3);
      patterns[k] = session.patterns();
      std::unique_ptr<Prefetcher> prefetcher;
      if (kClasses[k].out_of_core) {
        prefetcher =
            std::make_unique<Prefetcher>(*session.out_of_core(), kLookahead);
        session.engine().attach_prefetcher(prefetcher.get());
      }
      mark = now_s();
      const double logl = session.evaluate().log_likelihood;
      evaluate_ms.push_back((now_s() - mark) * 1e3);
      if (bits(logl) != job.logl_bits)
        out.fail(klass + " session result differs from the reference");
      ++out.attempted;
    }
    out.set("session.construct_ms." + klass, median(construct_ms));
    out.set("session.evaluate_ms." + klass, median(evaluate_ms));
  }

  // The out-of-core class through a TimedStore, with the server's AIO engine
  // and prefetch lookahead.
  const std::size_t ooc_class = static_cast<std::size_t>(
      std::find_if(kClasses.begin(), kClasses.end(),
                   [](const JobClass& c) { return c.out_of_core; }) -
      kClasses.begin());
  const Alignment alignment =
      load_entry_alignment(entry_for(inputs, ooc_class));
  AcquireTrace merged;
  OocStats stats;
  std::uint64_t io_ops = 0;
  double engine_seconds = 0.0;
  std::size_t traced_jobs = 0;
  const std::string vector_file = work_path(args, "traced.vectors");
  for (const DistinctJob& job : inputs.distinct) {
    if (job.klass != ooc_class || traced_jobs == kPerClass) continue;
    ++traced_jobs;
    JobSpec spec = spec_for(inputs, job, alignment);
    spec.session.vector_file = vector_file;
    Session session(std::move(spec.alignment), std::move(spec.tree),
                    std::move(spec.model), spec.session);
    OutOfCoreStore& store = *session.out_of_core();
    TimedStore timed(store);
    const std::unique_ptr<LikelihoodEngine> engine =
        traced_engine(session, timed);
    Prefetcher prefetcher(store, kLookahead);
    engine->attach_prefetcher(&prefetcher);
    const double mark = now_s();
    const double logl = engine->log_likelihood();
    engine_seconds += now_s() - mark;
    prefetcher.stop();
    if (bits(logl) != job.logl_bits)
      out.fail("traced dna-ooc result differs from the reference");
    ++out.attempted;
    const AcquireTrace& trace = timed.trace();
    merged.hits += trace.hits;
    merged.misses += trace.misses;
    merged.writes += trace.writes;
    merged.hit_seconds += trace.hit_seconds;
    merged.stall_seconds += trace.stall_seconds;
    merged.miss_us.insert(merged.miss_us.end(), trace.miss_us.begin(),
                          trace.miss_us.end());
    stats += store.stats_snapshot();
    io_ops += store.file().io_operations();
  }
  std::remove(vector_file.c_str());
  set_store_metrics(out, merged, stats, io_ops);
  out.set("likelihood.newview_calls", static_cast<double>(merged.writes));
  out.set("likelihood.engine_self_s", engine_seconds - merged.stall_seconds);
  set_kernel_metrics(out, patterns[0], patterns[2]);
}

/// net.*, service.*, cache.* and bench.generator_late_ms_p99 from a traced
/// traffic step and the server's stats before and after it.
void traffic_layer_metrics(const Traffic& traffic,
                           const StatsResponse& before,
                           const StatsResponse& after, Outcome& out) {
  std::vector<double> overhead_ms, queue_ms, run_ms, late_ms;
  double busy = 0.0, degraded = 0.0;
  for (const Sample& s : traffic.samples) {
    late_ms.push_back((s.sent - s.due) * 1e3);
    if (s.busy) busy += 1.0;
    if (!s.ok) continue;
    if (s.flags & kResultDegraded) degraded += 1.0;
    overhead_ms.push_back((s.received - s.sent - s.queue_s - s.run_s) * 1e3);
    queue_ms.push_back(s.queue_s * 1e3);
    run_ms.push_back(s.run_s * 1e3);
  }
  out.set("net.overhead_ms_p50", quantile(overhead_ms, 0.5));
  out.set("net.overhead_ms_p99", quantile(overhead_ms, 0.99));
  out.set("net.busy_rejects", busy);
  out.set("net.encode_submit_us", median(traffic.encode_us));
  out.set("net.decode_result_us", median(traffic.decode_us));
  out.set("service.queue_ms_p50", quantile(queue_ms, 0.5));
  out.set("service.queue_ms_p99", quantile(queue_ms, 0.99));
  out.set("service.run_ms_p50", quantile(run_ms, 0.5));
  out.set("service.run_ms_p99", quantile(run_ms, 0.99));
  out.set("service.degraded", degraded);
  auto tenant_total = [](const StatsResponse& stats, auto field) {
    double total = 0.0;
    for (const StatsResponse::TenantRow& row : stats.tenants)
      total += static_cast<double>(row.*field);
    return total;
  };
  out.set("service.shed",
          tenant_total(after, &StatsResponse::TenantRow::shed) -
              tenant_total(before, &StatsResponse::TenantRow::shed));
  out.set("service.expired",
          tenant_total(after, &StatsResponse::TenantRow::expired) -
              tenant_total(before, &StatsResponse::TenantRow::expired));
  const double lookups =
      static_cast<double>(after.cache_lookups - before.cache_lookups);
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  out.set("cache.lookups", lookups);
  out.set("cache.hits", hits);
  out.set("cache.hit_rate", lookups == 0.0 ? 0.0 : hits / lookups);
  out.set("bench.generator_late_ms_p99", quantile(late_ms, 0.99));
}

}  // namespace

Outcome serve_workload(const Args& args) {
  Outcome out;
  std::unique_ptr<ServerProcess> rss_server;
  if (!args.trace) rss_server = std::make_unique<ServerProcess>();
  std::size_t total_jobs = jobs_for(kRssStep, args.seconds);
  for (const Step& step : kLadder) total_jobs += jobs_for(step, args.seconds);
  const std::size_t serial_jobs =
      kLadder.size() * kSerialBlocksPerStep * kSerialBlockJobs;
  if (!args.trace) total_jobs += serial_jobs;
  if (args.trace) total_jobs = 2 * jobs_for(kLadder[kMiddleStep], args.seconds);
  Inputs inputs = make_inputs(args, total_jobs);

  // The first job of each class: always a distinct one.
  std::vector<Job> firsts;
  for (std::size_t k = 0; k < kClasses.size(); ++k)
    firsts.push_back(*std::find_if(
        inputs.jobs.begin(), inputs.jobs.end(),
        [k](const Job& job) { return job.klass == k; }));
  std::vector<double> setups;
  std::string setup_groups = "serve: setup group medians (ms):";
  auto time_setups = [&] {
    std::vector<double> group;
    for (int i = 0; i < kSetupsPerGroup; ++i) {
      const double mark = now_s();
      const std::unique_ptr<Server> server = start_server();
      const std::size_t failed = first_answers(*server, inputs, firsts);
      group.push_back(now_s() - mark);
      server->stop();
      out.attempted += firsts.size();
      if (failed > 0) {
        out.failed += failed;
        out.correct = false;
        out.note(std::to_string(failed) + " cold-start jobs failed");
      }
    }
    char part[16];
    std::snprintf(part, sizeof part, " %.3f", median(group) * 1e3);
    setup_groups += part;
    setups.insert(setups.end(), group.begin(), group.end());
  };
  const std::vector<double> device = compute_references(args, inputs);
  if (!args.trace) time_setups();
  const std::unique_ptr<Server> server = start_server();

  Rng rng(args.seed ^ 0x5e7e5e7eull);
  std::uint64_t next_request_id = 1;
  std::size_t cursor = 0;
  auto take = [&](std::size_t count) {
    std::vector<Job> jobs(inputs.jobs.begin() + cursor,
                          inputs.jobs.begin() + cursor + count);
    cursor += count;
    return jobs;
  };
  auto account = [&](const Traffic& traffic) {
    out.attempted += traffic.samples.size();
    const std::size_t failed = traffic.failed();
    if (failed > 0) {
      out.failed += failed;
      out.correct = false;
      out.note(std::to_string(failed) +
               " jobs failed or returned a wrong logL");
    }
  };
  // One open-loop step of `count` jobs at `rate` over `length` seconds.
  auto run_step = [&](double rate, std::size_t count, double length,
                      bool traced) {
    const std::vector<Job> jobs = take(count);
    const Traffic traffic =
        run_traffic(server->port(), inputs, jobs,
                    poisson_offsets(rng, count, length), traced,
                    next_request_id);
    account(traffic);
    if (!traced) {
      out.note(describe(summarize(traffic, rate)));
      out.note(class_breakdown(traffic, jobs));
    }
    return traffic;
  };

  if (args.trace) {
    const Step& middle = kLadder[kMiddleStep];
    const std::size_t count = jobs_for(middle, args.seconds);
    const double length = middle.share * args.seconds;
    const Traffic plain = run_step(middle.rate, count, length, false);
    BlockingClient stats_client("127.0.0.1", server->port());
    const StatsResponse before = stats_client.stats();
    const Traffic traced = run_step(middle.rate, count, length, true);
    const StatsResponse after = stats_client.stats();
    out.note(describe(summarize(traced, middle.rate)));
    const StepResult plain_step = summarize(plain, middle.rate);
    out.set("bench.latency_p50_ms", plain_step.p50_ms);
    out.set("bench.latency_p99_ms", plain_step.p99_ms);
    out.set("bench.trace_overhead",
            median(traced.latency_ms()) / plain_step.p50_ms);
    traffic_layer_metrics(traced, before, after, out);
    server->stop();
    direct_layer_metrics(args, inputs, out);
    return out;
  }

  // The ladder and the serial blocks, under the allocator's defaults:
  // cpu_s, wall_s and the latency notes. The serial jobs lead the job
  // sequence, so each block is one stratified block of it.
  const std::vector<Job> serial = take(serial_jobs);
  const double cpu0 = cpu_seconds();
  const double steal0 = steal_seconds();
  double max_passing = 0.0;
  std::array<std::vector<double>, kClasses.size()> serial_ms;
  std::size_t serial_sent = 0;
  for (std::size_t s = 0; s < kLadder.size(); ++s) {
    const Step& step = kLadder[s];
    const StepResult result = summarize(
        run_step(step.rate, jobs_for(step, args.seconds),
                 step.share * args.seconds, false),
        step.rate);
    if (result.meets_limit) max_passing = step.rate;
    for (std::size_t b = 0; b < kSerialBlocksPerStep; ++b) {
      const std::vector<Job> jobs(
          serial.begin() + static_cast<std::ptrdiff_t>(serial_sent),
          serial.begin() +
              static_cast<std::ptrdiff_t>(serial_sent + kSerialBlockJobs));
      serial_sent += kSerialBlockJobs;
      const Traffic block =
          run_closed_loop(server->port(), inputs, jobs, 1, next_request_id);
      account(block);
      const std::vector<double> latency = block.latency_ms();
      for (std::size_t i = 0; i < jobs.size(); ++i)
        serial_ms[jobs[i].klass].push_back(latency[i]);
    }
    time_setups();
  }
  const double cpu = cpu_seconds() - cpu0;
  // wall_s: geometric mean over the classes of the median one-at-a-time
  // latency, so each class counts alike whatever its share of the jobs.
  std::string serial_line = "serve: one job in flight, median latency (ms):";
  double log_sum = 0.0;
  for (std::size_t k = 0; k < kClasses.size(); ++k) {
    const double p50 = quantile(serial_ms[k], 0.5);
    log_sum += std::log(p50);
    char part[64];
    std::snprintf(part, sizeof part, " %s %.3f (n=%zu)", kClasses[k].name, p50,
                  serial_ms[k].size());
    serial_line += part;
  }
  out.note(serial_line);
  const double serial_s =
      std::exp(log_sum / static_cast<double>(kClasses.size())) * 1e-3;
  char line[160];
  std::snprintf(line, sizeof line,
                "serve: host steal during the ladder %.2f CPU-s",
                steal_seconds() - steal0);
  out.note(line);
  std::snprintf(line, sizeof line,
                "serve: highest step within the %.0f ms p99 limit: %.0f jobs/s",
                kP99LimitMs, max_passing);
  out.note(line);
  out.note(setup_groups);

  // peak_rss_mb: the same traffic as the middle step, served by the child
  // process's server. Its peak covers the server's start and the step.
  const std::uint16_t rss_port = rss_server->start();
  {
    const std::size_t count = jobs_for(kRssStep, args.seconds);
    const std::vector<Job> jobs = take(count);
    const Traffic traffic = run_traffic(
        rss_port, inputs, jobs,
        poisson_offsets(rng, count, kRssStep.share * args.seconds), false,
        next_request_id);
    account(traffic);
    out.note("peak-memory step, server in a child process:");
    out.note(describe(summarize(traffic, kRssStep.rate)));
  }
  const double peak_rss = rss_server->stop();
  server->stop();

  out.set("setup_s", median(setups));
  out.set("wall_s", serial_s);
  out.set("device_s", median(device));
  out.set("cpu_s", cpu);
  out.set("peak_rss_mb", peak_rss);
  return out;
}

}  // namespace perfbench

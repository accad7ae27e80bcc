// Length-prefixed binary wire protocol of the serving tier.
//
// Frame layout (all integers little-endian; docs/serving.md has the field
// tables):
//
//   offset size  field
//   0      4     magic "PLFN" (0x4e464c50 as a LE u32)
//   4      2     protocol version (kProtocolVersion)
//   6      2     message type (MessageType)
//   8      4     payload length in bytes
//   12     n     payload
//
// Payload primitives: u8/u16/u32/u64 little-endian, f64 as the IEEE-754
// bit pattern in a u64 (log likelihoods cross the wire bit-exactly — the
// loopback acceptance test compares u64 bit patterns, not rounded text),
// strings as u32 length + raw bytes, vectors as u32 count + elements.
//
// Trees travel as Phylo2Vec payloads (tree/phylo2vec.hpp): the topology
// vector, the canonical-order branch lengths, and a digest of the sorted
// taxon names. The names themselves are deliberately not sent — the
// binding is positional (leaf label = rank in the sorted taxon order of
// the server-side alignment), and the digest lets the server reject a
// tree/alignment mismatch instead of silently mis-binding.
//
// Decoding is strict: every read is bounds-checked, every decoder consumes
// its payload exactly, and any violation — short frame, bad magic, unknown
// version or type, oversized payload, malformed field, trailing bytes —
// throws a typed ProtocolError instead of crashing or guessing
// (tests/test_net.cpp fuzzes truncated/oversized/garbage frames against
// this contract). A ProtocolError poisons at most the one connection.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace plfoc {

inline constexpr std::uint32_t kProtocolMagic = 0x4e464c50u;  // "PLFN"
/// Current protocol version. v2 added SubmitRequest::deadline_ms, the
/// deadline/cancel/overload result flags, and per-tenant expired/shed
/// stats rows. v3 changed no field: SubmitRequest::taxa_digest is now the
/// lane-parallel checksum64's digest, which a v2 peer computes differently.
/// Decoders accept exactly [kMinProtocolVersion, kProtocolVersion] — today
/// only v3: the one peer is the in-repo client, so a frame of any other
/// version fails with ProtocolError kBadVersion.
inline constexpr std::uint16_t kProtocolVersion = 3;
inline constexpr std::uint16_t kMinProtocolVersion = kProtocolVersion;
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// Upper bound on one frame's payload; FrameDecoder rejects larger claims
/// before buffering (a garbage length prefix must not allocate 4 GiB).
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

enum class MessageType : std::uint16_t {
  kSubmitRequest = 1,
  kResultResponse = 2,
  kStatsRequest = 3,
  kStatsResponse = 4,
  kErrorResponse = 5,
  kPing = 6,
  kPong = 7,
};

/// Typed wire-format violation. Never fatal to the process: the server
/// answers with kErrorResponse (or drops the connection), the client
/// surfaces it to the caller.
class ProtocolError : public std::runtime_error {
 public:
  enum class Kind {
    kTruncated,      ///< read past the end of the payload / short header
    kBadMagic,       ///< frame does not start with "PLFN"
    kBadVersion,     ///< unsupported protocol version
    kBadType,        ///< unknown MessageType
    kOversized,      ///< payload length exceeds kMaxFramePayload
    kBadField,       ///< field value out of its domain
    kTrailingBytes,  ///< payload longer than the message it encodes
  };

  ProtocolError(Kind kind, const std::string& what)
      : std::runtime_error("protocol: " + what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// One decoded frame: validated header + raw payload bytes. `version` is
/// the header's protocol version (within the accepted range).
struct Frame {
  MessageType type = MessageType::kPing;
  std::uint16_t version = kProtocolVersion;
  std::vector<std::uint8_t> payload;
};

/// Incremental frame parser shared by the server's per-connection read
/// state machine, the blocking client, and the framing fuzz tests. Feed
/// arbitrary byte chunks with append(); next() yields complete frames and
/// throws ProtocolError on a malformed header (the stream is then
/// unrecoverable — drop the connection).
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void append(const std::uint8_t* data, std::size_t size);
  std::optional<Frame> next();

  std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::size_t max_payload_;
  std::deque<std::uint8_t> buffer_;
};

/// Bounds-checked payload reader; every getter throws ProtocolError
/// (kTruncated) past the end, expect_end() throws kTrailingBytes unless
/// the payload was consumed exactly.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string string();
  std::vector<std::uint32_t> u32_vector();
  std::vector<double> f64_vector();
  std::size_t remaining() const { return size_ - offset_; }
  void expect_end() const;

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

/// Little-endian payload builder mirroring WireReader.
class WireWriter {
 public:
  void u8(std::uint8_t value);
  void u16(std::uint16_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  void f64(double value);
  void string(const std::string& value);
  void u32_vector(const std::vector<std::uint32_t>& values);
  void f64_vector(const std::vector<double>& values);

  const std::vector<std::uint8_t>& payload() const { return payload_; }
  std::vector<std::uint8_t> take() { return std::move(payload_); }

 private:
  std::vector<std::uint8_t> payload_;
};

/// How a SubmitRequest ships its tree.
enum class WireTreeKind : std::uint8_t {
  kStepwise = 0,   ///< server builds a stepwise-addition tree from `seed`
  kPhylo2Vec = 1,  ///< explicit topology + branch lengths
};

/// One evaluation job. Field vocabulary matches the jobfile columns
/// (service/jobfile.hpp) so `plfoc-client <jobfile>` is a pure transport
/// change relative to `plfoc batch <jobfile>`.
struct SubmitRequest {
  std::uint64_t request_id = 0;  ///< client-chosen; echoed in the response
  std::string tenant;
  std::string name;
  std::string msa_path;  ///< server-side path; the MSA itself is not sent
  std::string format = "fasta";
  std::string data_type = "dna";
  std::string model = "gtr";
  double kappa = 2.0;
  std::uint32_t categories = 4;
  double alpha = 1.0;
  std::string backend = "inram";
  double ram_fraction = 0.0;
  std::uint64_t budget_bytes = 0;
  std::string strategy = "lru";
  std::uint64_t seed = 42;
  std::uint32_t threads = 0;
  WireTreeKind tree_kind = WireTreeKind::kStepwise;
  /// kPhylo2Vec only: topology vector, canonical-order branch lengths and
  /// the sorted-taxa digest (phylo2vec_taxa_digest) the server verifies
  /// against the alignment before binding leaf ranks to taxa.
  std::vector<std::uint32_t> tree_v;
  std::vector<double> tree_lengths;
  std::uint64_t taxa_digest = 0;
  /// End-to-end deadline in milliseconds, measured from server accept
  /// (0 = none). Maps to JobSpec::deadline_seconds.
  std::uint64_t deadline_ms = 0;
};

/// Converts JobSpec-style deadline seconds to the wire's millisecond field.
/// Rounds up so a positive sub-millisecond deadline stays a deadline (1 ms)
/// instead of truncating to 0 = "none"; 0 and negatives stay 0.
std::uint64_t deadline_ms_from_seconds(double seconds);

/// JobResult bit flags in ResultResponse::flags.
inline constexpr std::uint8_t kResultDegraded = 1u << 0;
inline constexpr std::uint8_t kResultCacheHit = 1u << 1;
inline constexpr std::uint8_t kResultIoFailure = 1u << 2;
inline constexpr std::uint8_t kResultIntegrityFailure = 1u << 3;
/// v2 flags: how a non-kDone job ended. The status byte carries the same
/// information; the flags make it greppable next to the v1 failure bits.
inline constexpr std::uint8_t kResultDeadlineExceeded = 1u << 4;
inline constexpr std::uint8_t kResultCancelled = 1u << 5;
inline constexpr std::uint8_t kResultOverloaded = 1u << 6;

struct ResultResponse {
  std::uint64_t request_id = 0;
  std::uint64_t job_id = 0;
  /// JobStatus as u8 (only terminal states cross the wire).
  std::uint8_t status = 0;
  /// IEEE-754 bit pattern of the log likelihood (bit-exact transport).
  std::uint64_t logl_bits = 0;
  std::uint8_t flags = 0;
  /// Diagnostic text: non-empty for failed jobs and typed drops
  /// (deadline-exceeded / overloaded / cancelled mid-evaluation).
  std::string error;
  double wall_seconds = 0.0;
  double queue_seconds = 0.0;
  std::string backend;  ///< admitted backend name
  std::uint32_t attempts = 1;
};

struct StatsRequest {
  std::uint64_t request_id = 0;
};

struct StatsResponse {
  std::uint64_t request_id = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_coalesced = 0;
  std::uint64_t queued_jobs = 0;
  struct TenantRow {
    std::string tenant;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t expired = 0;  ///< v2: deadline-exceeded jobs
    std::uint64_t shed = 0;     ///< v2: overload-shed jobs
  };
  std::vector<TenantRow> tenants;
};

/// ErrorResponse::code values.
enum class WireErrorCode : std::uint16_t {
  kBadRequest = 1,  ///< malformed or rejected submit (message explains)
  kBusy = 2,        ///< queue full — backpressure, retry later
  kShutdown = 3,    ///< server is draining; no new work accepted
};

struct ErrorResponse {
  std::uint64_t request_id = 0;
  WireErrorCode code = WireErrorCode::kBadRequest;
  std::string message;
};

// Frame assembly: header + payload for one message. decode_* functions
// take a Frame of the matching type (checked) and throw ProtocolError on
// any malformation. encode_frame's version parameter exists to emulate
// foreign peers in tests; production paths encode kProtocolVersion.
std::vector<std::uint8_t> encode_frame(
    MessageType type, const std::vector<std::uint8_t>& body,
    std::uint16_t version = kProtocolVersion);

std::vector<std::uint8_t> encode_submit_request(const SubmitRequest& msg);
std::vector<std::uint8_t> encode_result_response(const ResultResponse& msg);
std::vector<std::uint8_t> encode_stats_request(const StatsRequest& msg);
std::vector<std::uint8_t> encode_stats_response(const StatsResponse& msg);
std::vector<std::uint8_t> encode_error_response(const ErrorResponse& msg);
std::vector<std::uint8_t> encode_ping();
std::vector<std::uint8_t> encode_pong();

SubmitRequest decode_submit_request(const Frame& frame);
ResultResponse decode_result_response(const Frame& frame);
StatsRequest decode_stats_request(const Frame& frame);
StatsResponse decode_stats_response(const Frame& frame);
ErrorResponse decode_error_response(const Frame& frame);

}  // namespace plfoc

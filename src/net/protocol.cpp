#include "net/protocol.hpp"

#include <bit>
#include <cmath>
#include <cstring>

namespace plfoc {

std::uint64_t deadline_ms_from_seconds(double seconds) {
  if (!(seconds > 0.0)) return 0;
  const double ms = std::ceil(seconds * 1000.0);
  return ms < 1.0 ? 1 : static_cast<std::uint64_t>(ms);
}

namespace {

void require(bool condition, ProtocolError::Kind kind,
             const std::string& what) {
  if (!condition) throw ProtocolError(kind, what);
}

bool known_type(std::uint16_t raw) {
  return raw >= static_cast<std::uint16_t>(MessageType::kSubmitRequest) &&
         raw <= static_cast<std::uint16_t>(MessageType::kPong);
}

std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0]) |
         static_cast<std::uint16_t>(p[1]) << 8;
}

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

WireReader reader_for(const Frame& frame, MessageType expected,
                      const char* name) {
  require(frame.type == expected, ProtocolError::Kind::kBadType,
          std::string("frame is not a ") + name);
  return WireReader(frame.payload);
}

}  // namespace

void FrameDecoder::append(const std::uint8_t* data, std::size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameDecoder::next() {
  if (buffer_.size() < kFrameHeaderBytes) return std::nullopt;
  std::uint8_t header[kFrameHeaderBytes];
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) header[i] = buffer_[i];
  require(load_u32(header) == kProtocolMagic, ProtocolError::Kind::kBadMagic,
          "bad frame magic");
  const std::uint16_t version = load_u16(header + 4);
  require(version >= kMinProtocolVersion && version <= kProtocolVersion,
          ProtocolError::Kind::kBadVersion,
          "unsupported protocol version " + std::to_string(version));
  const std::uint16_t raw_type = load_u16(header + 6);
  require(known_type(raw_type), ProtocolError::Kind::kBadType,
          "unknown message type " + std::to_string(raw_type));
  const std::uint32_t payload_len = load_u32(header + 8);
  require(payload_len <= max_payload_, ProtocolError::Kind::kOversized,
          "payload of " + std::to_string(payload_len) +
              " bytes exceeds the frame limit");
  if (buffer_.size() < kFrameHeaderBytes + payload_len) return std::nullopt;
  Frame frame;
  frame.type = static_cast<MessageType>(raw_type);
  frame.version = version;
  frame.payload.reserve(payload_len);
  auto begin = buffer_.begin() + kFrameHeaderBytes;
  frame.payload.assign(begin, begin + payload_len);
  buffer_.erase(buffer_.begin(), begin + payload_len);
  return frame;
}

std::uint8_t WireReader::u8() {
  require(remaining() >= 1, ProtocolError::Kind::kTruncated,
          "payload truncated reading u8");
  return data_[offset_++];
}

std::uint16_t WireReader::u16() {
  require(remaining() >= 2, ProtocolError::Kind::kTruncated,
          "payload truncated reading u16");
  const std::uint16_t value = load_u16(data_ + offset_);
  offset_ += 2;
  return value;
}

std::uint32_t WireReader::u32() {
  require(remaining() >= 4, ProtocolError::Kind::kTruncated,
          "payload truncated reading u32");
  const std::uint32_t value = load_u32(data_ + offset_);
  offset_ += 4;
  return value;
}

std::uint64_t WireReader::u64() {
  const std::uint64_t low = u32();
  const std::uint64_t high = u32();
  return low | high << 32;
}

double WireReader::f64() { return std::bit_cast<double>(u64()); }

std::string WireReader::string() {
  const std::uint32_t length = u32();
  require(remaining() >= length, ProtocolError::Kind::kTruncated,
          "payload truncated reading a string of " + std::to_string(length) +
              " bytes");
  std::string value(reinterpret_cast<const char*>(data_ + offset_), length);
  offset_ += length;
  return value;
}

std::vector<std::uint32_t> WireReader::u32_vector() {
  const std::uint32_t count = u32();
  // Check the claim against the bytes actually present before allocating,
  // so a forged huge count fails as kTruncated instead of OOM-ing.
  require(remaining() / 4 >= count, ProtocolError::Kind::kTruncated,
          "payload truncated reading a u32 vector of " +
              std::to_string(count) + " elements");
  std::vector<std::uint32_t> values;
  values.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) values.push_back(u32());
  return values;
}

std::vector<double> WireReader::f64_vector() {
  const std::uint32_t count = u32();
  require(remaining() / 8 >= count, ProtocolError::Kind::kTruncated,
          "payload truncated reading an f64 vector of " +
              std::to_string(count) + " elements");
  std::vector<double> values;
  values.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) values.push_back(f64());
  return values;
}

void WireReader::expect_end() const {
  require(remaining() == 0, ProtocolError::Kind::kTrailingBytes,
          std::to_string(remaining()) + " trailing bytes after the message");
}

void WireWriter::u8(std::uint8_t value) { payload_.push_back(value); }

void WireWriter::u16(std::uint16_t value) {
  payload_.push_back(static_cast<std::uint8_t>(value));
  payload_.push_back(static_cast<std::uint8_t>(value >> 8));
}

void WireWriter::u32(std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8)
    payload_.push_back(static_cast<std::uint8_t>(value >> shift));
}

void WireWriter::u64(std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8)
    payload_.push_back(static_cast<std::uint8_t>(value >> shift));
}

void WireWriter::f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

void WireWriter::string(const std::string& value) {
  u32(static_cast<std::uint32_t>(value.size()));
  payload_.insert(payload_.end(), value.begin(), value.end());
}

void WireWriter::u32_vector(const std::vector<std::uint32_t>& values) {
  u32(static_cast<std::uint32_t>(values.size()));
  for (const std::uint32_t value : values) u32(value);
}

void WireWriter::f64_vector(const std::vector<double>& values) {
  u32(static_cast<std::uint32_t>(values.size()));
  for (const double value : values) f64(value);
}

std::vector<std::uint8_t> encode_frame(MessageType type,
                                       const std::vector<std::uint8_t>& body,
                                       std::uint16_t version) {
  WireWriter header;
  header.u32(kProtocolMagic);
  header.u16(version);
  header.u16(static_cast<std::uint16_t>(type));
  header.u32(static_cast<std::uint32_t>(body.size()));
  std::vector<std::uint8_t> frame = header.take();
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

std::vector<std::uint8_t> encode_submit_request(const SubmitRequest& msg) {
  WireWriter body;
  body.u64(msg.request_id);
  body.string(msg.tenant);
  body.string(msg.name);
  body.string(msg.msa_path);
  body.string(msg.format);
  body.string(msg.data_type);
  body.string(msg.model);
  body.f64(msg.kappa);
  body.u32(msg.categories);
  body.f64(msg.alpha);
  body.string(msg.backend);
  body.f64(msg.ram_fraction);
  body.u64(msg.budget_bytes);
  body.string(msg.strategy);
  body.u64(msg.seed);
  body.u32(msg.threads);
  body.u8(static_cast<std::uint8_t>(msg.tree_kind));
  if (msg.tree_kind == WireTreeKind::kPhylo2Vec) {
    body.u32_vector(msg.tree_v);
    body.f64_vector(msg.tree_lengths);
    body.u64(msg.taxa_digest);
  }
  body.u64(msg.deadline_ms);
  return encode_frame(MessageType::kSubmitRequest, body.payload());
}

SubmitRequest decode_submit_request(const Frame& frame) {
  WireReader reader =
      reader_for(frame, MessageType::kSubmitRequest, "SubmitRequest");
  SubmitRequest msg;
  msg.request_id = reader.u64();
  msg.tenant = reader.string();
  msg.name = reader.string();
  msg.msa_path = reader.string();
  msg.format = reader.string();
  msg.data_type = reader.string();
  msg.model = reader.string();
  msg.kappa = reader.f64();
  msg.categories = reader.u32();
  msg.alpha = reader.f64();
  msg.backend = reader.string();
  msg.ram_fraction = reader.f64();
  msg.budget_bytes = reader.u64();
  msg.strategy = reader.string();
  msg.seed = reader.u64();
  msg.threads = reader.u32();
  const std::uint8_t kind = reader.u8();
  require(kind <= static_cast<std::uint8_t>(WireTreeKind::kPhylo2Vec),
          ProtocolError::Kind::kBadField,
          "unknown tree kind " + std::to_string(kind));
  msg.tree_kind = static_cast<WireTreeKind>(kind);
  if (msg.tree_kind == WireTreeKind::kPhylo2Vec) {
    msg.tree_v = reader.u32_vector();
    msg.tree_lengths = reader.f64_vector();
    msg.taxa_digest = reader.u64();
  }
  msg.deadline_ms = reader.u64();
  reader.expect_end();
  return msg;
}

std::vector<std::uint8_t> encode_result_response(const ResultResponse& msg) {
  WireWriter body;
  body.u64(msg.request_id);
  body.u64(msg.job_id);
  body.u8(msg.status);
  body.u64(msg.logl_bits);
  body.u8(msg.flags);
  body.string(msg.error);
  body.f64(msg.wall_seconds);
  body.f64(msg.queue_seconds);
  body.string(msg.backend);
  body.u32(msg.attempts);
  return encode_frame(MessageType::kResultResponse, body.payload());
}

ResultResponse decode_result_response(const Frame& frame) {
  WireReader reader =
      reader_for(frame, MessageType::kResultResponse, "ResultResponse");
  ResultResponse msg;
  msg.request_id = reader.u64();
  msg.job_id = reader.u64();
  msg.status = reader.u8();
  msg.logl_bits = reader.u64();
  msg.flags = reader.u8();
  msg.error = reader.string();
  msg.wall_seconds = reader.f64();
  msg.queue_seconds = reader.f64();
  msg.backend = reader.string();
  msg.attempts = reader.u32();
  reader.expect_end();
  return msg;
}

std::vector<std::uint8_t> encode_stats_request(const StatsRequest& msg) {
  WireWriter body;
  body.u64(msg.request_id);
  return encode_frame(MessageType::kStatsRequest, body.payload());
}

StatsRequest decode_stats_request(const Frame& frame) {
  WireReader reader =
      reader_for(frame, MessageType::kStatsRequest, "StatsRequest");
  StatsRequest msg;
  msg.request_id = reader.u64();
  reader.expect_end();
  return msg;
}

std::vector<std::uint8_t> encode_stats_response(const StatsResponse& msg) {
  WireWriter body;
  body.u64(msg.request_id);
  body.u64(msg.cache_lookups);
  body.u64(msg.cache_hits);
  body.u64(msg.cache_misses);
  body.u64(msg.cache_coalesced);
  body.u64(msg.queued_jobs);
  body.u32(static_cast<std::uint32_t>(msg.tenants.size()));
  for (const StatsResponse::TenantRow& row : msg.tenants) {
    body.string(row.tenant);
    body.u64(row.submitted);
    body.u64(row.completed);
    body.u64(row.failed);
    body.u64(row.cancelled);
    body.u64(row.cache_hits);
    body.u64(row.expired);
    body.u64(row.shed);
  }
  return encode_frame(MessageType::kStatsResponse, body.payload());
}

StatsResponse decode_stats_response(const Frame& frame) {
  WireReader reader =
      reader_for(frame, MessageType::kStatsResponse, "StatsResponse");
  StatsResponse msg;
  msg.request_id = reader.u64();
  msg.cache_lookups = reader.u64();
  msg.cache_hits = reader.u64();
  msg.cache_misses = reader.u64();
  msg.cache_coalesced = reader.u64();
  msg.queued_jobs = reader.u64();
  const std::uint32_t rows = reader.u32();
  for (std::uint32_t i = 0; i < rows; ++i) {
    StatsResponse::TenantRow row;
    row.tenant = reader.string();
    row.submitted = reader.u64();
    row.completed = reader.u64();
    row.failed = reader.u64();
    row.cancelled = reader.u64();
    row.cache_hits = reader.u64();
    row.expired = reader.u64();
    row.shed = reader.u64();
    msg.tenants.push_back(std::move(row));
  }
  reader.expect_end();
  return msg;
}

std::vector<std::uint8_t> encode_error_response(const ErrorResponse& msg) {
  WireWriter body;
  body.u64(msg.request_id);
  body.u16(static_cast<std::uint16_t>(msg.code));
  body.string(msg.message);
  return encode_frame(MessageType::kErrorResponse, body.payload());
}

ErrorResponse decode_error_response(const Frame& frame) {
  WireReader reader =
      reader_for(frame, MessageType::kErrorResponse, "ErrorResponse");
  ErrorResponse msg;
  msg.request_id = reader.u64();
  const std::uint16_t code = reader.u16();
  require(code >= static_cast<std::uint16_t>(WireErrorCode::kBadRequest) &&
              code <= static_cast<std::uint16_t>(WireErrorCode::kShutdown),
          ProtocolError::Kind::kBadField,
          "unknown error code " + std::to_string(code));
  msg.code = static_cast<WireErrorCode>(code);
  msg.message = reader.string();
  reader.expect_end();
  return msg;
}

std::vector<std::uint8_t> encode_ping() {
  return encode_frame(MessageType::kPing, {});
}

std::vector<std::uint8_t> encode_pong() {
  return encode_frame(MessageType::kPong, {});
}

}  // namespace plfoc

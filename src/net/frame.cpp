#include "net/frame.hpp"

#include <array>
#include <cstring>

namespace svt::net {

namespace {

// --- Little-endian primitive encoding ---------------------------------------
// The wire format is explicitly little-endian regardless of host order; the
// per-byte assembly below compiles to plain loads/stores on LE hosts.

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

std::int32_t get_i32(const std::uint8_t* p) { return static_cast<std::int32_t>(get_u32(p)); }

double get_f64(const std::uint8_t* p) {
  const std::uint64_t bits = get_u64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool known_type(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(FrameType::kHello) &&
         type <= static_cast<std::uint8_t>(FrameType::kError);
}

/// Patch an already-appended frame: fill in the payload length and, for
/// control frames, the payload CRC. `header_at` is the offset of the frame
/// header inside `out`.
void seal_frame(std::vector<std::uint8_t>& out, std::size_t header_at, FrameType type) {
  const std::size_t payload_len = out.size() - header_at - kHeaderBytes;
  const std::uint32_t len32 = static_cast<std::uint32_t>(payload_len);
  for (int i = 0; i < 4; ++i) out[header_at + 4 + i] = static_cast<std::uint8_t>(len32 >> (8 * i));
  std::uint32_t crc = 0;
  if (is_control_frame(type)) {
    crc = crc32(std::span(out).subspan(header_at + kHeaderBytes, payload_len));
  }
  for (int i = 0; i < 4; ++i) out[header_at + 8 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
}

/// Append a header with length/crc left as zero; seal_frame fills them once
/// the payload has been appended.
std::size_t begin_frame(std::vector<std::uint8_t>& out, FrameType type) {
  const std::size_t header_at = out.size();
  put_u16(out, kMagic);
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u32(out, 0);  // length, sealed later
  put_u32(out, 0);  // crc, sealed later
  return header_at;
}

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) c = kCrcTable[(c ^ b) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kBadMagic: return "bad magic";
    case ErrorCode::kBadVersion: return "bad version";
    case ErrorCode::kOversizedFrame: return "oversized frame";
    case ErrorCode::kBadCrc: return "crc mismatch";
    case ErrorCode::kTruncatedFrame: return "truncated frame";
    case ErrorCode::kBadPayload: return "bad payload";
    case ErrorCode::kUnknownType: return "unknown frame type";
    case ErrorCode::kProtocolViolation: return "protocol violation";
    case ErrorCode::kDuplicateStream: return "duplicate stream";
    case ErrorCode::kUnknownStream: return "unknown stream";
    case ErrorCode::kConfigMismatch: return "config mismatch";
    case ErrorCode::kServerError: return "server error";
  }
  return "unknown error";
}

// --- Encoding ----------------------------------------------------------------

void append_hello(std::vector<std::uint8_t>& out, const HelloFrame& hello) {
  const std::size_t at = begin_frame(out, FrameType::kHello);
  put_u16(out, hello.version);
  put_u16(out, hello.max_workloads);
  seal_frame(out, at, FrameType::kHello);
}

void append_hello_ack(std::vector<std::uint8_t>& out, const HelloAckFrame& ack) {
  const std::size_t at = begin_frame(out, FrameType::kHelloAck);
  put_u16(out, ack.version);
  put_f64(out, ack.fs_hz);
  put_f64(out, ack.window_s);
  put_f64(out, ack.stride_s);
  put_u16(out, static_cast<std::uint16_t>(ack.workloads.size()));
  for (const WorkloadDescriptor& w : ack.workloads) {
    put_u16(out, static_cast<std::uint16_t>(w.name.size()));
    out.insert(out.end(), w.name.begin(), w.name.end());
    put_u16(out, w.num_features);
  }
  seal_frame(out, at, FrameType::kHelloAck);
}

void append_stream_open(std::vector<std::uint8_t>& out, const StreamOpenFrame& open) {
  const std::size_t at = begin_frame(out, FrameType::kStreamOpen);
  put_i32(out, open.patient_id);
  put_f64(out, open.fs_hz);
  seal_frame(out, at, FrameType::kStreamOpen);
}

void append_sample_chunk(std::vector<std::uint8_t>& out, std::int32_t patient_id,
                         std::span<const double> samples_mv) {
  const std::size_t at = begin_frame(out, FrameType::kSampleChunk);
  put_i32(out, patient_id);
  put_u32(out, static_cast<std::uint32_t>(samples_mv.size()));
  out.reserve(out.size() + samples_mv.size() * 8);
  for (const double s : samples_mv) put_f64(out, s);
  seal_frame(out, at, FrameType::kSampleChunk);
}

void append_end_stream(std::vector<std::uint8_t>& out, const EndStreamFrame& end) {
  const std::size_t at = begin_frame(out, FrameType::kEndStream);
  put_i32(out, end.patient_id);
  seal_frame(out, at, FrameType::kEndStream);
}

void append_bye(std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_frame(out, FrameType::kBye);
  seal_frame(out, at, FrameType::kBye);
}

void append_stats(std::vector<std::uint8_t>& out, const StatsFrame& stats) {
  const std::size_t at = begin_frame(out, FrameType::kStats);
  put_u64(out, stats.windows_delivered);
  put_u64(out, stats.windows_rejected);
  put_u64(out, stats.chunks_dropped);
  put_u64(out, stats.frames_received);
  put_u64(out, stats.samples_ingested);
  put_u64(out, stats.streams_opened);
  put_u64(out, stats.streams_closed);
  put_u64(out, stats.protocol_errors);
  put_u64(out, stats.windows_annotated);
  put_u64(out, stats.windows_suppressed);
  seal_frame(out, at, FrameType::kStats);
}

void append_decisions(std::vector<std::uint8_t>& out, std::int32_t patient_id,
                      std::span<const DecisionRecord> decisions) {
  const std::size_t at = begin_frame(out, FrameType::kDecision);
  put_i32(out, patient_id);
  put_u32(out, static_cast<std::uint32_t>(decisions.size()));
  out.reserve(out.size() + decisions.size() * 32);
  for (const DecisionRecord& d : decisions) {
    put_f64(out, d.start_s);
    put_f64(out, d.decision_value);
    put_i32(out, d.label);
    put_u32(out, d.num_beats);
    put_u32(out, d.workload);
    put_u32(out, d.quality);
  }
  seal_frame(out, at, FrameType::kDecision);
}

void append_error(std::vector<std::uint8_t>& out, const ErrorFrame& error) {
  const std::size_t at = begin_frame(out, FrameType::kError);
  put_u32(out, static_cast<std::uint32_t>(error.code));
  out.insert(out.end(), error.message.begin(), error.message.end());
  seal_frame(out, at, FrameType::kError);
}

// --- Payload parsing ---------------------------------------------------------

bool parse_hello(std::span<const std::uint8_t> payload, HelloFrame& out) {
  if (payload.size() != 4) return false;
  out.version = get_u16(payload.data());
  out.max_workloads = get_u16(payload.data() + 2);
  return true;
}

bool parse_hello_ack(std::span<const std::uint8_t> payload, HelloAckFrame& out) {
  // Fixed prefix, then a size-checked variable-length workload table: every
  // descriptor's declared name length must fit what remains, and the table
  // must consume the payload exactly.
  constexpr std::size_t kPrefix = 2 + 3 * 8 + 2;
  if (payload.size() < kPrefix) return false;
  out.version = get_u16(payload.data());
  out.fs_hz = get_f64(payload.data() + 2);
  out.window_s = get_f64(payload.data() + 10);
  out.stride_s = get_f64(payload.data() + 18);
  const std::size_t num_workloads = get_u16(payload.data() + 26);
  out.workloads.clear();
  out.workloads.reserve(num_workloads);
  std::size_t at = kPrefix;
  for (std::size_t w = 0; w < num_workloads; ++w) {
    if (payload.size() - at < 2) return false;
    const std::size_t name_len = get_u16(payload.data() + at);
    at += 2;
    if (payload.size() - at < name_len + 2) return false;
    WorkloadDescriptor desc;
    desc.name.assign(payload.begin() + static_cast<std::ptrdiff_t>(at),
                     payload.begin() + static_cast<std::ptrdiff_t>(at + name_len));
    at += name_len;
    desc.num_features = get_u16(payload.data() + at);
    at += 2;
    out.workloads.push_back(std::move(desc));
  }
  return at == payload.size();
}

bool parse_stream_open(std::span<const std::uint8_t> payload, StreamOpenFrame& out) {
  if (payload.size() != 4 + 8) return false;
  out.patient_id = get_i32(payload.data());
  out.fs_hz = get_f64(payload.data() + 4);
  return true;
}

bool parse_end_stream(std::span<const std::uint8_t> payload, EndStreamFrame& out) {
  if (payload.size() != 4) return false;
  out.patient_id = get_i32(payload.data());
  return true;
}

bool parse_stats(std::span<const std::uint8_t> payload, StatsFrame& out) {
  if (payload.size() != 10 * 8) return false;
  const std::uint8_t* p = payload.data();
  out.windows_delivered = get_u64(p);
  out.windows_rejected = get_u64(p + 8);
  out.chunks_dropped = get_u64(p + 16);
  out.frames_received = get_u64(p + 24);
  out.samples_ingested = get_u64(p + 32);
  out.streams_opened = get_u64(p + 40);
  out.streams_closed = get_u64(p + 48);
  out.protocol_errors = get_u64(p + 56);
  out.windows_annotated = get_u64(p + 64);
  out.windows_suppressed = get_u64(p + 72);
  return true;
}

bool parse_error(std::span<const std::uint8_t> payload, ErrorFrame& out) {
  if (payload.size() < 4) return false;
  out.code = static_cast<ErrorCode>(get_u32(payload.data()));
  out.message.assign(payload.begin() + 4, payload.end());
  return true;
}

void SampleChunkView::copy_samples(std::vector<double>& out) const {
  out.resize(num_samples);
  for (std::size_t i = 0; i < num_samples; ++i) out[i] = get_f64(samples + 8 * i);
}

bool parse_sample_chunk(std::span<const std::uint8_t> payload, SampleChunkView& out) {
  if (payload.size() < 8) return false;
  out.patient_id = get_i32(payload.data());
  out.num_samples = get_u32(payload.data() + 4);
  if (payload.size() != 8 + out.num_samples * 8) return false;
  out.samples = payload.data() + 8;
  return true;
}

DecisionRecord DecisionBatchView::record(std::size_t i) const {
  const std::uint8_t* p = records + 32 * i;
  DecisionRecord d;
  d.start_s = get_f64(p);
  d.decision_value = get_f64(p + 8);
  d.label = get_i32(p + 16);
  d.num_beats = get_u32(p + 20);
  d.workload = get_u32(p + 24);
  d.quality = get_u32(p + 28);
  return d;
}

bool parse_decisions(std::span<const std::uint8_t> payload, DecisionBatchView& out) {
  if (payload.size() < 8) return false;
  out.patient_id = get_i32(payload.data());
  out.num_decisions = get_u32(payload.data() + 4);
  if (payload.size() != 8 + out.num_decisions * 32) return false;
  out.records = payload.data() + 8;
  return true;
}

// --- Incremental decoding ----------------------------------------------------

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (error_ != ErrorCode::kNone) return;
  // Compact before appending: drop the consumed prefix so the buffer's size
  // tracks the unconsumed backlog, not the connection's lifetime traffic.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

ErrorCode FrameDecoder::poison(ErrorCode code, std::string message) {
  error_ = code;
  error_message_ = std::move(message);
  return code;
}

FrameDecoder::Status FrameDecoder::next(Frame& frame) {
  if (error_ != ErrorCode::kNone) return Status::kError;
  if (buffer_.size() - consumed_ < kHeaderBytes) return Status::kNeedMore;
  const std::uint8_t* header = buffer_.data() + consumed_;
  const std::uint16_t magic = get_u16(header);
  if (magic != kMagic) {
    poison(ErrorCode::kBadMagic, "frame magic " + std::to_string(magic));
    return Status::kError;
  }
  const std::uint8_t version = header[2];
  if (version != kProtocolVersion) {
    poison(ErrorCode::kBadVersion, "protocol version " + std::to_string(version));
    return Status::kError;
  }
  const std::uint8_t raw_type = header[3];
  if (!known_type(raw_type)) {
    poison(ErrorCode::kUnknownType, "frame type " + std::to_string(raw_type));
    return Status::kError;
  }
  const std::uint32_t length = get_u32(header + 4);
  if (length > kMaxPayloadBytes) {
    poison(ErrorCode::kOversizedFrame,
           "payload length " + std::to_string(length) + " exceeds " +
               std::to_string(kMaxPayloadBytes));
    return Status::kError;
  }
  if (buffer_.size() - consumed_ < kHeaderBytes + length) return Status::kNeedMore;
  const auto type = static_cast<FrameType>(raw_type);
  const auto payload =
      std::span<const std::uint8_t>(buffer_.data() + consumed_ + kHeaderBytes, length);
  if (is_control_frame(type)) {
    const std::uint32_t declared = get_u32(header + 8);
    const std::uint32_t actual = crc32(payload);
    if (declared != actual) {
      poison(ErrorCode::kBadCrc, "control frame crc " + std::to_string(declared) +
                                     " != computed " + std::to_string(actual));
      return Status::kError;
    }
  }
  consumed_ += kHeaderBytes + length;
  frame.type = type;
  frame.payload = payload;
  return Status::kFrame;
}

ErrorCode FrameDecoder::finish() const {
  if (error_ != ErrorCode::kNone) return error_;
  return buffer_.size() == consumed_ ? ErrorCode::kNone : ErrorCode::kTruncatedFrame;
}

}  // namespace svt::net

// Wire framing for the network serving gateway.
//
// Every message on a gateway connection is one length-prefixed frame with a
// fixed 12-byte little-endian header:
//
//   offset  size  field
//        0     2  magic   0x5653 ("SV")
//        2     1  version kProtocolVersion
//        3     1  type    FrameType
//        4     4  length  payload bytes (<= kMaxPayloadBytes)
//        8     4  crc32   CRC-32 of the payload for CONTROL frames; 0 for
//                         the two data frame types (kSampleChunk, kDecision),
//                         which are length-checked but not checksummed so the
//                         sample hot path stays cheap
//
// Frame types and payloads (all integers little-endian, all floats IEEE-754
// binary64 little-endian):
//
//   kHello       u16 protocol version, u16 max_workloads (0 = accept any)
//                                               client -> server, first frame
//   kHelloAck    u16 version, f64 fs_hz, f64 window_s, f64 stride_s,
//                u16 num_workloads, num_workloads x WorkloadDescriptor
//                (u16 name_len, name_len x u8 UTF-8 name, u16 num_features)
//   kStreamOpen  i32 patient_id, f64 fs_hz      fs must equal the server's
//   kSampleChunk i32 patient_id, u32 count, count x f64 samples (mV)
//   kEndStream   i32 patient_id                 finite stream ended
//   kBye         (empty)                        client done; server fences,
//                                               answers kStats, closes
//   kStats       10 x u64 counters              see StatsFrame
//   kDecision    i32 patient_id, u32 count, count x DecisionRecord
//                (f64 start_s, f64 decision, i32 label, u32 num_beats,
//                 u32 workload, u32 quality_flags)
//   kError       u32 code, UTF-8 message        typed refusal; sender closes
//
// Decoding is incremental: FrameDecoder consumes bytes in arbitrary slices
// (a frame fed byte-by-byte decodes identically to one fed whole) and
// surfaces malformed input — bad magic, wrong version, oversized length,
// CRC mismatch, truncation — as typed ErrorCodes instead of crashing, so a
// gateway can answer with a kError frame and drop the connection. The
// decoder reuses one internal buffer; steady-state feeding allocates
// nothing once the buffer has grown to the connection's chunk size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace svt::net {

inline constexpr std::uint16_t kMagic = 0x5653;  // "SV" when read LE.
/// Version history: v1 carried 8 u64 counters in kStats; v2 grew it to 12
/// (the ward-scale scheduler counters); v3 is the multi-workload protocol —
/// DecisionRecord gained workload id + quality flags (24 -> 32 bytes),
/// kHello gained the client's accepted workload count, kHelloAck describes
/// each served workload (name + feature count), and kStats grew to 14
/// counters (quality-gate annotations/suppressions); v4 drops the four
/// scheduler counters with the scheduler, so kStats carries 10. Payloads are
/// size-checked, so mixed versions must never talk past the handshake — the
/// decoder rejects a foreign version byte on the first frame (kBadVersion)
/// and the gateway refuses a mismatched kHello, instead of failing silently
/// at stats parse.
inline constexpr std::uint8_t kProtocolVersion = 4;
inline constexpr std::size_t kHeaderBytes = 12;
/// Upper bound on one frame's payload: a 4 s chunk at 250 Hz is ~8 KiB, so
/// 1 MiB leaves room for minutes-long chunks while making a garbage length
/// field fail fast instead of waiting for gigabytes that never arrive.
inline constexpr std::size_t kMaxPayloadBytes = 1u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kStreamOpen = 3,
  kSampleChunk = 4,
  kEndStream = 5,
  kBye = 6,
  kStats = 7,
  kDecision = 8,
  kError = 9,
};

/// Control frames carry a CRC-32 over the payload; the two data frame types
/// (sample chunks and decisions) are length-checked only.
inline constexpr bool is_control_frame(FrameType type) {
  return type != FrameType::kSampleChunk && type != FrameType::kDecision;
}

enum class ErrorCode : std::uint32_t {
  kNone = 0,
  kBadMagic = 1,
  kBadVersion = 2,
  kOversizedFrame = 3,
  kBadCrc = 4,
  kTruncatedFrame = 5,   ///< Connection ended mid-frame.
  kBadPayload = 6,       ///< Payload length/content disagrees with the type.
  kUnknownType = 7,
  kProtocolViolation = 8,  ///< Valid frame at the wrong time (no hello, ...).
  kDuplicateStream = 9,
  kUnknownStream = 10,
  kConfigMismatch = 11,  ///< StreamOpen fs_hz != the server's stream config.
  kServerError = 12,
};

const char* error_code_name(ErrorCode code);

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `bytes`.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

// --- Typed payloads ----------------------------------------------------------

struct HelloFrame {
  std::uint16_t version = kProtocolVersion;
  /// Most workloads the client is prepared to demultiplex; 0 = accept
  /// whatever the server serves. The gateway refuses (kConfigMismatch) when
  /// it serves more than a non-zero bound.
  std::uint16_t max_workloads = 0;
};

/// One served workload as announced in the hello-ack: the registered name
/// and its per-window feature count (rt::Workload::num_features).
struct WorkloadDescriptor {
  std::string name;
  std::uint16_t num_features = 0;
};

struct HelloAckFrame {
  std::uint16_t version = kProtocolVersion;
  double fs_hz = 0.0;
  double window_s = 0.0;
  double stride_s = 0.0;
  /// Served workloads, in workload-id order (DecisionRecord::workload
  /// indexes this list).
  std::vector<WorkloadDescriptor> workloads;
};

struct StreamOpenFrame {
  std::int32_t patient_id = 0;
  double fs_hz = 0.0;
};

struct EndStreamFrame {
  std::int32_t patient_id = 0;
};

/// Server counters answered to a kBye (also usable for monitoring frames).
struct StatsFrame {
  std::uint64_t windows_delivered = 0;
  std::uint64_t windows_rejected = 0;
  std::uint64_t chunks_dropped = 0;   ///< Engine kDropOldest evictions.
  std::uint64_t frames_received = 0;
  std::uint64_t samples_ingested = 0;
  std::uint64_t streams_opened = 0;
  std::uint64_t streams_closed = 0;
  std::uint64_t protocol_errors = 0;
  // Quality-gate counters (v3; zero when the gate is off).
  std::uint64_t windows_annotated = 0;   ///< Emitted with non-zero quality flags.
  std::uint64_t windows_suppressed = 0;  ///< Withheld by the suppress policy.
};

/// One classified window on the wire (32 bytes).
struct DecisionRecord {
  double start_s = 0.0;
  double decision_value = 0.0;
  std::int32_t label = 0;
  std::uint32_t num_beats = 0;
  std::uint32_t workload = 0;  ///< Index into the hello-ack workload list.
  std::uint32_t quality = 0;   ///< ecg::quality_flags bitmask (0 = clean).
};

struct ErrorFrame {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
};

// --- Encoding ----------------------------------------------------------------
// Every append_* encodes one complete frame (header + payload) onto the end
// of `out`, which is the caller's reusable send buffer: repeated appends
// build a batch that one send() flushes explicitly.

void append_hello(std::vector<std::uint8_t>& out, const HelloFrame& hello);
void append_hello_ack(std::vector<std::uint8_t>& out, const HelloAckFrame& ack);
void append_stream_open(std::vector<std::uint8_t>& out, const StreamOpenFrame& open);
void append_sample_chunk(std::vector<std::uint8_t>& out, std::int32_t patient_id,
                         std::span<const double> samples_mv);
void append_end_stream(std::vector<std::uint8_t>& out, const EndStreamFrame& end);
void append_bye(std::vector<std::uint8_t>& out);
void append_stats(std::vector<std::uint8_t>& out, const StatsFrame& stats);
void append_decisions(std::vector<std::uint8_t>& out, std::int32_t patient_id,
                      std::span<const DecisionRecord> decisions);
void append_error(std::vector<std::uint8_t>& out, const ErrorFrame& error);

// --- Payload parsing ---------------------------------------------------------
// Each parse_* decodes one frame's payload span (as surfaced by the
// decoder); returns false when the payload length or content disagrees with
// the frame type (the caller should treat that as ErrorCode::kBadPayload).

bool parse_hello(std::span<const std::uint8_t> payload, HelloFrame& out);
bool parse_hello_ack(std::span<const std::uint8_t> payload, HelloAckFrame& out);
bool parse_stream_open(std::span<const std::uint8_t> payload, StreamOpenFrame& out);
bool parse_end_stream(std::span<const std::uint8_t> payload, EndStreamFrame& out);
bool parse_stats(std::span<const std::uint8_t> payload, StatsFrame& out);
bool parse_error(std::span<const std::uint8_t> payload, ErrorFrame& out);

/// Zero-copy view of a sample-chunk payload; `samples` points into the
/// decoder's buffer and is valid until the next feed()/next() call.
struct SampleChunkView {
  std::int32_t patient_id = 0;
  std::size_t num_samples = 0;
  const std::uint8_t* samples = nullptr;  ///< num_samples x f64 LE.
  /// Decode into `out` (resized; capacity reused across calls, so a
  /// per-connection scratch makes the ingest path allocation-free once
  /// warm).
  void copy_samples(std::vector<double>& out) const;
};
bool parse_sample_chunk(std::span<const std::uint8_t> payload, SampleChunkView& out);

/// Zero-copy view of a decision payload (same lifetime rules).
struct DecisionBatchView {
  std::int32_t patient_id = 0;
  std::size_t num_decisions = 0;
  const std::uint8_t* records = nullptr;  ///< num_decisions x 32 bytes.
  DecisionRecord record(std::size_t i) const;
};
bool parse_decisions(std::span<const std::uint8_t> payload, DecisionBatchView& out);

// --- Incremental decoding ----------------------------------------------------

class FrameDecoder {
 public:
  struct Frame {
    FrameType type = FrameType::kHello;
    std::span<const std::uint8_t> payload;  ///< Valid until next feed()/next().
  };

  enum class Status {
    kNeedMore,  ///< No complete frame buffered yet.
    kFrame,     ///< `frame` holds the next decoded frame.
    kError,     ///< Malformed input; the decoder is poisoned (see error()).
  };

  /// Buffer `bytes` (any slicing: whole frames, partial frames, single
  /// bytes). No-op once poisoned.
  void feed(std::span<const std::uint8_t> bytes);

  /// Extract the next complete frame, if any. After kError the decoder
  /// refuses further input: framing is byte-positional, so nothing after a
  /// malformed header can be trusted — the connection must be dropped.
  Status next(Frame& frame);

  /// Signal end-of-input (peer closed the connection). Returns kNone when
  /// the byte stream ended on a frame boundary, kTruncatedFrame otherwise.
  ErrorCode finish() const;

  ErrorCode error() const { return error_; }
  const std::string& error_message() const { return error_message_; }

  /// Bytes currently buffered and not yet consumed by next().
  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  ErrorCode poison(ErrorCode code, std::string message);

  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< Prefix of buffer_ already handed out.
  ErrorCode error_ = ErrorCode::kNone;
  std::string error_message_;
};

}  // namespace svt::net

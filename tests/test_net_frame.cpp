// Wire framing: every frame type must round-trip bit-exactly through
// encode -> FrameDecoder -> parse under any input slicing (whole buffers or
// byte-by-byte), and every class of malformed input — bad magic, wrong
// version, oversized length, truncation, CRC corruption, unknown type, bad
// payload — must surface as its typed ErrorCode and poison the decoder
// instead of crashing or resynchronising on garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "net/frame.hpp"

namespace svt::net {
namespace {

std::span<const std::uint8_t> bytes_of(const std::vector<std::uint8_t>& v) {
  return std::span<const std::uint8_t>(v.data(), v.size());
}

/// Decode exactly one frame out of `wire`, asserting success.
FrameDecoder::Frame decode_one(FrameDecoder& decoder, const std::vector<std::uint8_t>& wire) {
  decoder.feed(bytes_of(wire));
  FrameDecoder::Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  return frame;
}

TEST(NetFrame, Crc32KnownVector) {
  const std::string check = "123456789";
  const auto* data = reinterpret_cast<const std::uint8_t*>(check.data());
  EXPECT_EQ(crc32(std::span<const std::uint8_t>(data, check.size())), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(NetFrame, HelloRoundTrip) {
  std::vector<std::uint8_t> wire;
  append_hello(wire, HelloFrame{kProtocolVersion});
  FrameDecoder decoder;
  const auto frame = decode_one(decoder, wire);
  EXPECT_EQ(frame.type, FrameType::kHello);
  HelloFrame hello;
  ASSERT_TRUE(parse_hello(frame.payload, hello));
  EXPECT_EQ(hello.version, kProtocolVersion);
}

TEST(NetFrame, HelloCarriesMaxWorkloads) {
  std::vector<std::uint8_t> wire;
  HelloFrame hello;
  hello.max_workloads = 7;
  append_hello(wire, hello);
  FrameDecoder decoder;
  const auto frame = decode_one(decoder, wire);
  HelloFrame got;
  ASSERT_TRUE(parse_hello(frame.payload, got));
  EXPECT_EQ(got.version, kProtocolVersion);
  EXPECT_EQ(got.max_workloads, 7);
}

TEST(NetFrame, HelloAckRoundTripPreservesF64Bits) {
  HelloAckFrame ack;
  ack.fs_hz = 256.0;
  ack.window_s = 0.1 + 0.2;  // A value with a non-trivial mantissa.
  ack.stride_s = 5e-324;     // Smallest denormal: survives only bit-exactly.
  std::vector<std::uint8_t> wire;
  append_hello_ack(wire, ack);
  FrameDecoder decoder;
  const auto frame = decode_one(decoder, wire);
  ASSERT_EQ(frame.type, FrameType::kHelloAck);
  HelloAckFrame got;
  ASSERT_TRUE(parse_hello_ack(frame.payload, got));
  EXPECT_EQ(got.version, ack.version);
  EXPECT_EQ(got.fs_hz, ack.fs_hz);
  EXPECT_EQ(got.window_s, ack.window_s);
  EXPECT_EQ(got.stride_s, ack.stride_s);
  EXPECT_TRUE(got.workloads.empty());
}

TEST(NetFrame, HelloAckWorkloadTableRoundTrip) {
  HelloAckFrame ack;
  ack.fs_hz = 100.0;
  ack.window_s = 60.0;
  ack.stride_s = 10.0;
  ack.workloads.push_back({"apnea", 53});
  ack.workloads.push_back({"af", 3});
  ack.workloads.push_back({"", 0});  // Empty name must survive too.
  std::vector<std::uint8_t> wire;
  append_hello_ack(wire, ack);
  FrameDecoder decoder;
  const auto frame = decode_one(decoder, wire);
  ASSERT_EQ(frame.type, FrameType::kHelloAck);
  HelloAckFrame got;
  ASSERT_TRUE(parse_hello_ack(frame.payload, got));
  ASSERT_EQ(got.workloads.size(), 3u);
  EXPECT_EQ(got.workloads[0].name, "apnea");
  EXPECT_EQ(got.workloads[0].num_features, 53);
  EXPECT_EQ(got.workloads[1].name, "af");
  EXPECT_EQ(got.workloads[1].num_features, 3);
  EXPECT_EQ(got.workloads[2].name, "");
  EXPECT_EQ(got.workloads[2].num_features, 0);
}

TEST(NetFrame, HelloAckTruncatedWorkloadTableRejected) {
  HelloAckFrame ack;
  ack.workloads.push_back({"apnea", 53});
  std::vector<std::uint8_t> wire;
  append_hello_ack(wire, ack);
  FrameDecoder decoder;
  const auto frame = decode_one(decoder, wire);
  HelloAckFrame got;
  // Any cut inside the workload table must fail the parse, not read OOB.
  for (std::size_t cut = 1; cut < frame.payload.size(); ++cut) {
    EXPECT_FALSE(parse_hello_ack(frame.payload.subspan(0, frame.payload.size() - cut), got))
        << "cut " << cut;
  }
  // Trailing garbage after a complete table is also a malformed payload.
  std::vector<std::uint8_t> padded(frame.payload.begin(), frame.payload.end());
  padded.push_back(0);
  EXPECT_FALSE(parse_hello_ack(std::span<const std::uint8_t>(padded.data(), padded.size()), got));
}

TEST(NetFrame, StreamOpenEndStreamByeStatsRoundTrip) {
  std::vector<std::uint8_t> wire;
  append_stream_open(wire, StreamOpenFrame{-7, 250.0});
  append_end_stream(wire, EndStreamFrame{-7});
  append_bye(wire);
  StatsFrame stats;
  stats.windows_delivered = 1;
  stats.samples_ingested = std::numeric_limits<std::uint64_t>::max();
  stats.protocol_errors = 8;
  append_stats(wire, stats);

  FrameDecoder decoder;
  decoder.feed(bytes_of(wire));
  FrameDecoder::Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  ASSERT_EQ(frame.type, FrameType::kStreamOpen);
  StreamOpenFrame open;
  ASSERT_TRUE(parse_stream_open(frame.payload, open));
  EXPECT_EQ(open.patient_id, -7);
  EXPECT_EQ(open.fs_hz, 250.0);

  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  ASSERT_EQ(frame.type, FrameType::kEndStream);
  EndStreamFrame end;
  ASSERT_TRUE(parse_end_stream(frame.payload, end));
  EXPECT_EQ(end.patient_id, -7);

  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kBye);
  EXPECT_TRUE(frame.payload.empty());

  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  ASSERT_EQ(frame.type, FrameType::kStats);
  StatsFrame got;
  ASSERT_TRUE(parse_stats(frame.payload, got));
  EXPECT_EQ(got.windows_delivered, stats.windows_delivered);
  EXPECT_EQ(got.samples_ingested, stats.samples_ingested);
  EXPECT_EQ(got.protocol_errors, stats.protocol_errors);

  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.finish(), ErrorCode::kNone);
}

TEST(NetFrame, StatsCarriesQualityCounters) {
  StatsFrame stats;
  stats.windows_delivered = 11;
  stats.windows_annotated = 5;
  stats.windows_suppressed = 2;
  std::vector<std::uint8_t> wire;
  append_stats(wire, stats);
  FrameDecoder decoder;
  const auto frame = decode_one(decoder, wire);
  ASSERT_EQ(frame.type, FrameType::kStats);
  StatsFrame got;
  ASSERT_TRUE(parse_stats(frame.payload, got));
  EXPECT_EQ(got.windows_delivered, 11u);
  EXPECT_EQ(got.windows_annotated, 5u);
  EXPECT_EQ(got.windows_suppressed, 2u);
  // v4 carries 10 counters; the size check is exact, so a v3-sized
  // (14-counter) stats payload does not parse.
  EXPECT_EQ(frame.payload.size(), 10 * 8u);
  std::vector<std::uint8_t> v3_sized(frame.payload.begin(), frame.payload.end());
  v3_sized.resize(14 * 8, 0);
  EXPECT_FALSE(parse_stats(std::span<const std::uint8_t>(v3_sized.data(), v3_sized.size()), got));
}

TEST(NetFrame, SampleChunkRoundTripIsBitExact) {
  const std::vector<double> samples = {0.0,
                                       -0.0,
                                       1.0 / 3.0,
                                       -2.75,
                                       5e-324,
                                       std::numeric_limits<double>::max(),
                                       -std::numeric_limits<double>::denorm_min()};
  std::vector<std::uint8_t> wire;
  append_sample_chunk(wire, 42, samples);
  FrameDecoder decoder;
  const auto frame = decode_one(decoder, wire);
  ASSERT_EQ(frame.type, FrameType::kSampleChunk);
  SampleChunkView view;
  ASSERT_TRUE(parse_sample_chunk(frame.payload, view));
  EXPECT_EQ(view.patient_id, 42);
  ASSERT_EQ(view.num_samples, samples.size());
  std::vector<double> out;
  view.copy_samples(out);
  ASSERT_EQ(out.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // memcmp, not ==: -0.0 == 0.0 would hide a sign-bit loss.
    EXPECT_EQ(std::memcmp(&out[i], &samples[i], sizeof(double)), 0) << "sample " << i;
  }
}

TEST(NetFrame, DecisionBatchRoundTrip) {
  std::vector<DecisionRecord> records(3);
  records[0] = {0.0, -1.25, -1, 7, 0, 0};
  records[1] = {10.0, 0.5, +1, 12, 1, 0x3};  // AF workload, both quality bits.
  records[2] = {20.0, 1.0 / 7.0, +1, 0, 2, 0x1};
  std::vector<std::uint8_t> wire;
  append_decisions(wire, 9, records);
  FrameDecoder decoder;
  const auto frame = decode_one(decoder, wire);
  ASSERT_EQ(frame.type, FrameType::kDecision);
  DecisionBatchView view;
  ASSERT_TRUE(parse_decisions(frame.payload, view));
  EXPECT_EQ(view.patient_id, 9);
  ASSERT_EQ(view.num_decisions, records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto r = view.record(i);
    EXPECT_EQ(r.start_s, records[i].start_s);
    EXPECT_EQ(r.decision_value, records[i].decision_value);
    EXPECT_EQ(r.label, records[i].label);
    EXPECT_EQ(r.num_beats, records[i].num_beats);
    EXPECT_EQ(r.workload, records[i].workload);
    EXPECT_EQ(r.quality, records[i].quality);
  }
  // A v2-sized (24-byte-record) payload no longer parses: records are 32
  // bytes now and the size check is exact.
  EXPECT_FALSE(parse_decisions(frame.payload.subspan(0, 8 + records.size() * 24), view));
}

TEST(NetFrame, ErrorFrameRoundTrip) {
  ErrorFrame error;
  error.code = ErrorCode::kConfigMismatch;
  error.message = "stream fs 360 Hz, server expects 250 Hz";
  std::vector<std::uint8_t> wire;
  append_error(wire, error);
  FrameDecoder decoder;
  const auto frame = decode_one(decoder, wire);
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorFrame got;
  ASSERT_TRUE(parse_error(frame.payload, got));
  EXPECT_EQ(got.code, error.code);
  EXPECT_EQ(got.message, error.message);
}

TEST(NetFrame, ByteByByteDecodesIdenticallyToWholeFeed) {
  // A representative conversation: control and data frames interleaved.
  std::vector<std::uint8_t> wire;
  append_hello(wire, HelloFrame{});
  append_stream_open(wire, StreamOpenFrame{3, 250.0});
  const std::vector<double> samples = {0.25, -0.5, 1.0 / 3.0};
  append_sample_chunk(wire, 3, samples);
  append_end_stream(wire, EndStreamFrame{3});
  append_bye(wire);

  // Reference pass: whole buffer at once.
  std::vector<FrameType> whole_types;
  {
    FrameDecoder decoder;
    decoder.feed(bytes_of(wire));
    FrameDecoder::Frame frame;
    while (decoder.next(frame) == FrameDecoder::Status::kFrame) whole_types.push_back(frame.type);
    EXPECT_EQ(decoder.finish(), ErrorCode::kNone);
  }
  ASSERT_EQ(whole_types.size(), 5u);

  // Partial-read pass: one byte per feed, draining after every byte.
  FrameDecoder decoder;
  std::vector<FrameType> types;
  std::vector<double> chunk_samples;
  for (const std::uint8_t byte : wire) {
    decoder.feed(std::span<const std::uint8_t>(&byte, 1));
    FrameDecoder::Frame frame;
    while (true) {
      const auto status = decoder.next(frame);
      ASSERT_NE(status, FrameDecoder::Status::kError) << error_code_name(decoder.error());
      if (status != FrameDecoder::Status::kFrame) break;
      types.push_back(frame.type);
      if (frame.type == FrameType::kSampleChunk) {
        SampleChunkView view;
        ASSERT_TRUE(parse_sample_chunk(frame.payload, view));
        view.copy_samples(chunk_samples);
      }
    }
  }
  EXPECT_EQ(types, whole_types);
  EXPECT_EQ(chunk_samples, samples);
  EXPECT_EQ(decoder.finish(), ErrorCode::kNone);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(NetFrame, BadMagicPoisonsWithTypedError) {
  std::vector<std::uint8_t> wire;
  append_hello(wire, HelloFrame{});
  wire[0] ^= 0xFF;
  FrameDecoder decoder;
  decoder.feed(bytes_of(wire));
  FrameDecoder::Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error(), ErrorCode::kBadMagic);
  // Poisoned: more input (even a valid frame) is refused.
  std::vector<std::uint8_t> good;
  append_bye(good);
  decoder.feed(bytes_of(good));
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error(), ErrorCode::kBadMagic);
}

TEST(NetFrame, WrongVersionIsBadVersion) {
  std::vector<std::uint8_t> wire;
  append_hello(wire, HelloFrame{});
  wire[2] = kProtocolVersion + 1;  // Header byte 2 is the protocol version.
  FrameDecoder decoder;
  decoder.feed(bytes_of(wire));
  FrameDecoder::Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error(), ErrorCode::kBadVersion);
}

TEST(NetFrame, OversizedLengthFailsFast) {
  std::vector<std::uint8_t> wire;
  append_bye(wire);
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(wire.data() + 4, &huge, sizeof(huge));  // Header bytes 4..7: length.
  FrameDecoder decoder;
  decoder.feed(bytes_of(wire));
  FrameDecoder::Frame frame;
  // Fails on the header alone — no need to wait for a payload that never
  // arrives.
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error(), ErrorCode::kOversizedFrame);
}

TEST(NetFrame, UnknownTypeIsTyped) {
  std::vector<std::uint8_t> wire;
  append_bye(wire);
  wire[3] = 0x7F;  // Header byte 3 is the frame type.
  FrameDecoder decoder;
  decoder.feed(bytes_of(wire));
  FrameDecoder::Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error(), ErrorCode::kUnknownType);
}

TEST(NetFrame, ControlCrcCorruptionIsBadCrc) {
  std::vector<std::uint8_t> wire;
  append_stream_open(wire, StreamOpenFrame{5, 250.0});
  wire.back() ^= 0x01;  // Flip one payload bit; the stored CRC now disagrees.
  FrameDecoder decoder;
  decoder.feed(bytes_of(wire));
  FrameDecoder::Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error(), ErrorCode::kBadCrc);
}

TEST(NetFrame, DataFramesSkipCrc) {
  // Data frames carry crc=0 and are not checksummed: corrupting the stored
  // CRC field must NOT fail the frame (the payload length is still checked).
  std::vector<std::uint8_t> wire;
  const std::vector<double> samples = {1.0, 2.0};
  append_sample_chunk(wire, 1, samples);
  wire[8] ^= 0xFF;  // Header bytes 8..11: crc32 (ignored for data frames).
  FrameDecoder decoder;
  const auto frame = decode_one(decoder, wire);
  EXPECT_EQ(frame.type, FrameType::kSampleChunk);
}

TEST(NetFrame, TruncationMidHeaderAndMidPayload) {
  std::vector<std::uint8_t> wire;
  append_stream_open(wire, StreamOpenFrame{5, 250.0});

  // Mid-header cut.
  {
    FrameDecoder decoder;
    decoder.feed(std::span<const std::uint8_t>(wire.data(), kHeaderBytes - 3));
    FrameDecoder::Frame frame;
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
    EXPECT_EQ(decoder.finish(), ErrorCode::kTruncatedFrame);
  }
  // Mid-payload cut.
  {
    FrameDecoder decoder;
    decoder.feed(std::span<const std::uint8_t>(wire.data(), wire.size() - 1));
    FrameDecoder::Frame frame;
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
    EXPECT_EQ(decoder.finish(), ErrorCode::kTruncatedFrame);
  }
  // A clean boundary reports no truncation.
  {
    FrameDecoder decoder;
    decoder.feed(bytes_of(wire));
    FrameDecoder::Frame frame;
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
    EXPECT_EQ(decoder.finish(), ErrorCode::kNone);
  }
}

TEST(NetFrame, BadPayloadLengthsRejectedByParsers) {
  std::vector<std::uint8_t> wire;
  append_stream_open(wire, StreamOpenFrame{5, 250.0});
  FrameDecoder decoder;
  const auto frame = decode_one(decoder, wire);
  // Feed the right payload to the wrong parsers.
  HelloFrame hello;
  EXPECT_FALSE(parse_hello(frame.payload, hello));
  StatsFrame stats;
  EXPECT_FALSE(parse_stats(frame.payload, stats));
  // Truncated payload spans fail the right parser too.
  StreamOpenFrame open;
  EXPECT_FALSE(parse_stream_open(frame.payload.subspan(0, 3), open));
  SampleChunkView chunk;
  EXPECT_FALSE(parse_sample_chunk(frame.payload.subspan(0, 3), chunk));
}

TEST(NetFrame, SampleChunkCountPayloadMismatchIsBadPayload) {
  std::vector<std::uint8_t> wire;
  const std::vector<double> samples = {1.0, 2.0, 3.0};
  append_sample_chunk(wire, 1, samples);
  // Claim 4 samples but carry 3: count (payload bytes 4..7) disagrees with
  // the payload length.
  const std::uint32_t lie = 4;
  std::memcpy(wire.data() + kHeaderBytes + 4, &lie, sizeof(lie));
  FrameDecoder decoder;
  const auto frame = decode_one(decoder, wire);
  SampleChunkView view;
  EXPECT_FALSE(parse_sample_chunk(frame.payload, view));
}

TEST(NetFrame, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kBadMagic), "bad magic");
  EXPECT_STREQ(error_code_name(ErrorCode::kBadCrc), "crc mismatch");
  EXPECT_STREQ(error_code_name(ErrorCode::kConfigMismatch), "config mismatch");
}

}  // namespace
}  // namespace svt::net

// Seeded mutation test for the readers that take untrusted input: the wire
// codec (FrameDecoder fed in random slices, and every parse_*), the WFDB
// header and signal readers, and the model-file loader
// (rt::ServableModel::load). Valid frames, records and model files are
// mutated by bit flips, truncation, splices and length/count edits. Every
// outcome must be a typed ErrorCode, a false parse, a clean load or
// std::invalid_argument; a crash, a sanitizer report or any other exception
// (std::bad_alloc and std::length_error included) fails the test. Each iteration
// draws from its own generator, seeded from (kSeed, phase, iteration), so
// the seed and iteration a failure prints replay that case alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/wfdb.hpp"
#include "net/frame.hpp"
#include "rt/cohort_replayer.hpp"
#include "rt/model_registry.hpp"
#include "support/temp_dir.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define SVT_MUTATION_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SVT_MUTATION_ASAN 1
#endif
#endif
#ifdef SVT_MUTATION_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

namespace svt {
namespace {

using Bytes = std::vector<std::uint8_t>;
using Rng = std::mt19937_64;

constexpr std::uint32_t kSeed = 20190325;
// Sized for ~5 s in a Debug ASan+UBSan build.
constexpr std::size_t kFrameSessions = 12000;
constexpr std::size_t kPayloads = 20000;
constexpr std::size_t kRecords = 2500;
constexpr std::size_t kModelFiles = 4000;

/// The case being run, for failure messages — and for a sanitizer's death
/// report, which ends the process before gtest can print anything.
const char* g_phase = "";
std::size_t g_iteration = 0;

std::string where() {
  return "seed " + std::to_string(kSeed) + ", " + g_phase + " iteration " +
         std::to_string(g_iteration);
}

/// Start iteration `i` of `phase` (phase_id distinguishes the phases' streams).
Rng begin_iteration(const char* phase, std::uint32_t phase_id, std::size_t i) {
  g_phase = phase;
  g_iteration = i;
  std::seed_seq seq{kSeed, phase_id, static_cast<std::uint32_t>(i)};
  return Rng(seq);
}

void report_on_sanitizer_death() {
#ifdef SVT_MUTATION_ASAN
  __sanitizer_set_death_callback([] {
    std::fprintf(stderr, "mutation case: seed %u, %s iteration %zu\n", kSeed, g_phase, g_iteration);
  });
#endif
}

std::size_t pick(Rng& rng, std::size_t n) {
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
}

std::uint32_t get_u32(const Bytes& b, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t k = 0; k < 4; ++k) v |= static_cast<std::uint32_t>(b[at + k]) << (8 * k);
  return v;
}

void put_u32(Bytes& b, std::size_t at, std::uint32_t v) {
  for (std::size_t k = 0; k < 4; ++k) b[at + k] = static_cast<std::uint8_t>(v >> (8 * k));
}

/// A boundary-heavy replacement for a length or count field: near its
/// current value, at a type or protocol limit, or random.
std::uint32_t edge_value(Rng& rng, std::uint32_t current) {
  constexpr auto kMax = static_cast<std::uint32_t>(net::kMaxPayloadBytes);
  const std::uint32_t near[] = {0u, 1u, current - 1, current + 1, current * 2, current / 2};
  const std::uint32_t limits[] = {0xFFFFu, 0x10000u, 0x80000000u, 0xFFFFFFFFu, kMax, kMax + 1};
  switch (pick(rng, 3)) {
    case 0:
      return near[pick(rng, std::size(near))];
    case 1:
      return limits[pick(rng, std::size(limits))];
    default:
      return static_cast<std::uint32_t>(rng());
  }
}

/// One random edit: bit flips, a truncation, a splice of `donor` bytes over
/// a random range, or a 16- or 32-bit field overwritten with an edge value.
void mutate(Bytes& bytes, const Bytes& donor, Rng& rng) {
  switch (pick(rng, 5)) {
    case 0:
      if (bytes.empty()) return;
      for (std::size_t n = 1 + pick(rng, 4); n > 0; --n)
        bytes[pick(rng, bytes.size())] ^= static_cast<std::uint8_t>(1u << pick(rng, 8));
      return;
    case 1:
      bytes.resize(pick(rng, bytes.size() + 1));
      return;
    case 2: {
      const std::size_t at = pick(rng, bytes.size() + 1);
      const std::size_t cut = pick(rng, bytes.size() - at + 1);
      const std::size_t from = pick(rng, donor.size() + 1);
      const std::size_t len = pick(rng, std::min<std::size_t>(donor.size() - from, 64) + 1);
      bytes.erase(bytes.begin() + at, bytes.begin() + at + cut);
      bytes.insert(bytes.begin() + at, donor.begin() + from, donor.begin() + from + len);
      return;
    }
    case 3:
      if (bytes.size() >= 4) {
        const std::size_t at = pick(rng, bytes.size() - 3);
        put_u32(bytes, at, edge_value(rng, get_u32(bytes, at)));
      }
      return;
    default:
      if (bytes.size() >= 2) {
        const std::size_t at = pick(rng, bytes.size() - 1);
        const auto v = static_cast<std::uint16_t>(edge_value(rng, bytes[at] | bytes[at + 1] << 8));
        bytes[at] = static_cast<std::uint8_t>(v);
        bytes[at + 1] = static_cast<std::uint8_t>(v >> 8);
      }
      return;
  }
}

// --- Wire codec --------------------------------------------------------------

/// One valid frame of every type, each a separate buffer.
std::vector<Bytes> valid_frames() {
  std::vector<Bytes> frames(9);
  net::append_hello(frames[0], {net::kProtocolVersion, 2});
  net::HelloAckFrame ack;
  ack.fs_hz = 250.0;
  ack.window_s = 20.0;
  ack.stride_s = 10.0;
  ack.workloads = {{"seizure", 53}, {"af", 3}};
  net::append_hello_ack(frames[1], ack);
  net::append_stream_open(frames[2], {7, 250.0});
  const std::vector<double> samples = {0.1, -0.25, 1.5, 0.0, -3.0, 2.25, 0.5};
  net::append_sample_chunk(frames[3], 7, samples);
  const net::DecisionRecord decisions[] = {{0.0, 0.5, 1, 23, 0, 0}, {10.0, -1.2, -1, 22, 1, 2}};
  net::append_decisions(frames[4], 7, decisions);
  net::append_end_stream(frames[5], {7});
  net::StatsFrame stats;
  stats.windows_delivered = 12;
  stats.windows_annotated = 3;
  net::append_stats(frames[6], stats);
  net::append_error(frames[7], {net::ErrorCode::kConfigMismatch, "fs mismatch"});
  net::append_bye(frames[8]);
  return frames;
}

/// Recompute a frame's CRC over the payload its length field claims (as
/// much of it as is present), so payload edits get past the decoder's
/// checksum and reach the parsers.
void reseal(Bytes& frame) {
  if (frame.size() < net::kHeaderBytes) return;
  const std::size_t len =
      std::min<std::size_t>(get_u32(frame, 4), frame.size() - net::kHeaderBytes);
  put_u32(frame, 8, net::crc32({frame.data() + net::kHeaderBytes, len}));
}

/// Run a payload through every parser; successful parses are read in full
/// so an out-of-bounds view shows up under ASan.
void parse_all(std::span<const std::uint8_t> payload) {
  net::HelloFrame hello;
  (void)net::parse_hello(payload, hello);
  net::HelloAckFrame ack;
  (void)net::parse_hello_ack(payload, ack);
  net::StreamOpenFrame open;
  (void)net::parse_stream_open(payload, open);
  net::EndStreamFrame end;
  (void)net::parse_end_stream(payload, end);
  net::StatsFrame stats;
  (void)net::parse_stats(payload, stats);
  net::ErrorFrame error;
  (void)net::parse_error(payload, error);
  net::SampleChunkView chunk;
  if (net::parse_sample_chunk(payload, chunk)) {
    std::vector<double> samples;
    chunk.copy_samples(samples);
    EXPECT_EQ(8 + 8 * samples.size(), payload.size()) << where();
  }
  net::DecisionBatchView batch;
  if (net::parse_decisions(payload, batch))
    for (std::size_t i = 0; i < batch.num_decisions; ++i) (void)batch.record(i);
}

bool is_typed(net::ErrorCode code) {
  return code != net::ErrorCode::kNone && code <= net::ErrorCode::kServerError;
}

/// Feed `stream` to a decoder in random slices, parsing every frame it
/// yields. The decoder must end on a frame, on a typed error, or (input cut
/// mid-frame) on kTruncatedFrame.
void decode_in_slices(const Bytes& stream, Rng& rng) {
  net::FrameDecoder decoder;
  net::FrameDecoder::Frame frame;
  bool poisoned = false;
  for (std::size_t at = 0; at < stream.size() && !poisoned;) {
    std::size_t n = stream.size() - at;
    if (pick(rng, 4) != 0) n = std::min(n, 1 + pick(rng, 48));
    decoder.feed({stream.data() + at, n});
    at += n;
    for (;;) {
      const auto status = decoder.next(frame);
      if (status == net::FrameDecoder::Status::kNeedMore) break;
      if (status == net::FrameDecoder::Status::kError) {
        poisoned = true;
        break;
      }
      parse_all(frame.payload);
    }
  }
  const net::ErrorCode end = decoder.finish();
  if (poisoned) {
    EXPECT_TRUE(is_typed(decoder.error())) << where();
    EXPECT_EQ(end, decoder.error()) << where();
  } else {
    EXPECT_TRUE(end == net::ErrorCode::kNone || end == net::ErrorCode::kTruncatedFrame)
        << where() << ": " << net::error_code_name(end);
  }
}

TEST(MutationFuzz, FrameDecoderAndParsersSurviveMutatedSessions) {
  report_on_sanitizer_death();
  const std::vector<Bytes> frames = valid_frames();
  Bytes donor;
  for (const Bytes& f : frames) donor.insert(donor.end(), f.begin(), f.end());
  for (std::size_t i = 0; i < kFrameSessions && !::testing::Test::HasFailure(); ++i) {
    Rng rng = begin_iteration("frame session", 1, i);
    try {
      // A session of 1-12 frames; up to 3 of them edited, then (sometimes)
      // the whole byte stream.
      std::vector<Bytes> session;
      for (std::size_t n = 1 + pick(rng, 12); n > 0; --n)
        session.push_back(frames[pick(rng, frames.size())]);
      for (std::size_t edits = pick(rng, 4); edits > 0; --edits) {
        Bytes& frame = session[pick(rng, session.size())];
        switch (pick(rng, 3)) {
          case 0:  // Header length field.
            if (frame.size() >= 8) put_u32(frame, 4, edge_value(rng, get_u32(frame, 4)));
            break;
          case 1:  // Payload count field (samples, decisions, hello-ack workloads).
            if (frame.size() >= net::kHeaderBytes + 30) {
              const bool ack = static_cast<net::FrameType>(frame[3]) == net::FrameType::kHelloAck;
              const std::size_t at = net::kHeaderBytes + (ack ? 26 : 4);
              put_u32(frame, at, edge_value(rng, get_u32(frame, at)));
            }
            break;
          default:
            mutate(frame, donor, rng);
        }
        if (pick(rng, 2) == 0) reseal(frame);
      }
      Bytes stream;
      for (const Bytes& f : session) stream.insert(stream.end(), f.begin(), f.end());
      if (pick(rng, 4) == 0) mutate(stream, donor, rng);
      decode_in_slices(stream, rng);
    } catch (const std::exception& e) {
      ADD_FAILURE() << where() << ": unexpected exception: " << e.what();
    }
  }
}

TEST(MutationFuzz, ParsersSurviveMutatedPayloads) {
  // Straight to the parsers: the decoder's CRC would stop most control
  // payload edits before they got here.
  report_on_sanitizer_death();
  std::vector<Bytes> payloads;
  Bytes donor;
  for (const Bytes& f : valid_frames()) {
    payloads.emplace_back(f.begin() + net::kHeaderBytes, f.end());
    donor.insert(donor.end(), f.begin(), f.end());
  }
  for (std::size_t i = 0; i < kPayloads && !::testing::Test::HasFailure(); ++i) {
    Rng rng = begin_iteration("payload", 2, i);
    try {
      Bytes payload = payloads[pick(rng, payloads.size())];
      for (std::size_t edits = 1 + pick(rng, 3); edits > 0; --edits) mutate(payload, donor, rng);
      parse_all(payload);
    } catch (const std::exception& e) {
      ADD_FAILURE() << where() << ": unexpected exception: " << e.what();
    }
  }
}

// --- WFDB readers ------------------------------------------------------------

struct RecordFiles {
  std::string header;
  std::vector<std::pair<std::string, Bytes>> signals;  ///< (file name, bytes)
};

Bytes read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
}

void write_file(const std::filesystem::path& path, const Bytes& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
}

/// Valid records covering every format, both 212 parities, a two-signal
/// file and a two-file record, written with io::write_record and read back
/// as bytes.
std::vector<RecordFiles> valid_records(const std::filesystem::path& dir) {
  std::vector<RecordFiles> records;
  const auto add = [&](const std::string& name, std::vector<int> formats, bool one_file,
                       std::size_t samples) {
    io::RecordHeader header;
    header.record_name = name;
    std::vector<std::vector<int>> adc;
    RecordFiles files;
    for (std::size_t s = 0; s < formats.size(); ++s) {
      io::SignalSpec spec;
      spec.format = formats[s];
      spec.file_name = name + (one_file ? "" : std::to_string(s)) + ".dat";
      spec.description = "ECG lead " + std::to_string(s + 1);
      header.signals.push_back(spec);
      if (s == 0 || !one_file) files.signals.emplace_back(spec.file_name, Bytes{});
      std::vector<int> series(samples);
      for (std::size_t t = 0; t < samples; ++t)
        series[t] = static_cast<int>((t * 37 + s * 11) % 200) - 100;
      adc.push_back(std::move(series));
    }
    io::write_record(dir.string(), header, adc);
    const Bytes hea = read_file(dir / (name + ".hea"));
    files.header.assign(hea.begin(), hea.end());
    for (auto& [file, bytes] : files.signals) bytes = read_file(dir / file);
    records.push_back(std::move(files));
  };
  add("r212", {212}, true, 37);
  add("r16", {16, 16}, true, 24);
  add("r80", {80}, true, 20);
  add("rmix", {212, 16}, false, 18);
  return records;
}

/// Replace one whitespace-separated token with an edge value.
void edit_token(std::string& text, Rng& rng) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < text.size(); ++i)
    if (!std::isspace(static_cast<unsigned char>(text[i])) &&
        (i == 0 || std::isspace(static_cast<unsigned char>(text[i - 1]))))
      starts.push_back(i);
  if (starts.empty()) return;
  const std::size_t begin = starts[pick(rng, starts.size())];
  std::size_t end = begin;
  while (end < text.size() && !std::isspace(static_cast<unsigned char>(text[end]))) ++end;
  // Counts, rates, formats, gains and file names at and past their limits.
  std::istringstream edges("0 -1 1 2 4294967297 9223372036854775807 99999999999999999999 nan "
                           "inf 1e308 -0 212 16 80 24 200(0)/mV 0(-5) x.dat");
  const std::vector<std::string> values{std::istream_iterator<std::string>(edges), {}};
  text.replace(begin, end - begin, values[pick(rng, values.size())]);
}

TEST(MutationFuzz, WfdbReadersSurviveMutatedRecords) {
  report_on_sanitizer_death();
  const test::TempDir tmp("mutation");
  const std::filesystem::path& dir = tmp.path();
  const std::vector<RecordFiles> records = valid_records(dir);
  Bytes donor;
  for (const auto& r : records) {
    donor.insert(donor.end(), r.header.begin(), r.header.end());
    for (const auto& signal : r.signals)
      donor.insert(donor.end(), signal.second.begin(), signal.second.end());
  }
  for (std::size_t i = 0; i < kRecords && !::testing::Test::HasFailure(); ++i) {
    Rng rng = begin_iteration("wfdb record", 3, i);
    const RecordFiles& record = records[pick(rng, records.size())];
    std::string header = record.header;
    auto signals = record.signals;
    switch (pick(rng, 3)) {
      case 0:  // The header as text: token edits.
        for (std::size_t edits = 1 + pick(rng, 2); edits > 0; --edits) edit_token(header, rng);
        break;
      case 1: {  // The header as bytes.
        Bytes bytes(header.begin(), header.end());
        mutate(bytes, donor, rng);
        header.assign(bytes.begin(), bytes.end());
        break;
      }
      default:  // A signal file.
        mutate(signals[pick(rng, signals.size())].second, donor, rng);
    }
    try {
      std::istringstream is(header);
      (void)io::parse_header(is);
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << where() << ": parse_header threw " << e.what();
    }
    write_file(dir / "m.hea", Bytes(header.begin(), header.end()));
    for (const auto& [name, bytes] : signals) write_file(dir / name, bytes);
    try {
      const io::WfdbRecord got = io::read_record(dir.string(), "m");
      for (std::size_t c = 0; c < got.adc.size(); ++c) (void)got.signal_mv(c);
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << where() << ": read_record threw " << e.what();
    }
    for (const auto& [name, bytes] : record.signals) write_file(dir / name, bytes);
  }
}

// --- Model files -------------------------------------------------------------

TEST(MutationFuzz, ModelLoaderSurvivesMutatedModelFiles) {
  // A quantised and a float model file (the AF model: 3 features, 16 SVs),
  // edited token by token with edge values (counts far past memory or
  // negative among them) or truncated. Every outcome must be a clean load
  // or std::invalid_argument, and every model that loads classifies one
  // window of extreme features, so a sanitizer sees any overflow a loaded
  // model can drive the kernels into.
  report_on_sanitizer_death();
  const rt::ServableModel quantized = rt::synthetic_af_model();
  const rt::ServableModel float_model(quantized.selected_features(), quantized.scaler(),
                                      quantized.model(), std::nullopt);
  std::vector<std::string> texts;
  for (const rt::ServableModel* model : {&quantized, &float_model}) {
    std::ostringstream os;
    model->save(os);
    texts.push_back(os.str());
  }
  // Raw features at both extremes: every quantised input saturates.
  std::vector<double> window(rt::kMaxWorkloadFeatures);
  for (std::size_t j = 0; j < window.size(); ++j) window[j] = j % 2 == 0 ? 1e9 : -1e9;
  std::vector<double> decisions;
  rt::KernelScratch scratch;
  for (std::size_t i = 0; i < kModelFiles && !::testing::Test::HasFailure(); ++i) {
    Rng rng = begin_iteration("model file", 4, i);
    std::string text = texts[pick(rng, texts.size())];
    if (pick(rng, 4) == 0) {
      text.resize(pick(rng, text.size() + 1));
    } else {
      for (std::size_t edits = 1 + pick(rng, 2); edits > 0; --edits) edit_token(text, rng);
    }
    try {
      std::istringstream is(text);
      const rt::ServableModel model = rt::ServableModel::load(is);
      std::vector<std::vector<double>> rows(1);
      model.prepare_row(window, rows.front());
      model.decision_values(rows, decisions, scratch);
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << where() << ": ServableModel::load or its classification threw "
                    << e.what();
    }
  }
}

}  // namespace
}  // namespace svt

// WFDB record reader/writer: header parsing (comments, defaults, gain
// specs), format 212/16/80 packing round-trips in BOTH sample-count parities
// (the trailing half-group is the classic off-by-one trap), multi-channel
// de-interleaving and ECG channel selection, ADC<->mV conversion, and the
// corrupt-input failure modes (size mismatch, checksum mismatch, a header
// sample count too large to allocate or to multiply out).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "io/cohort_fixture.hpp"
#include "io/wfdb.hpp"

namespace svt {
namespace {

std::string test_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("svt_wfdb_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::vector<int> random_adc(std::size_t n, int lo, int hi, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(lo, hi);
  std::vector<int> adc(n);
  for (auto& v : adc) v = dist(rng);
  // Pin the range extremes so sign extension is exercised at both ends.
  if (n >= 2) {
    adc[0] = lo;
    adc[1] = hi;
  }
  return adc;
}

io::RecordHeader one_signal_header(const std::string& name, int format, double gain = 200.0,
                                   int baseline = 0) {
  io::RecordHeader header;
  header.record_name = name;
  header.fs_hz = 250.0;
  io::SignalSpec spec;
  spec.file_name = name + ".dat";
  spec.format = format;
  spec.adc_resolution = format == 212 ? 12 : (format == 80 ? 8 : 16);
  spec.adc_gain = gain;
  spec.baseline = baseline;
  spec.description = "ECG lead I";
  header.signals.push_back(spec);
  return header;
}

TEST(WfdbHeader, ParsesCommentsAndAppliesDefaults) {
  std::istringstream hea(
      "# created by the svmtailor fixture writer\n"
      "rec12 2 360 650000\n"
      "# interleaved signal file\n"
      "rec12.dat 212\n"
      "rec12.dat 16 100(50)/uV 16 0 12 345 0 ECG lead II\n");
  const auto header = io::parse_header(hea);
  EXPECT_EQ(header.record_name, "rec12");
  EXPECT_DOUBLE_EQ(header.fs_hz, 360.0);
  EXPECT_EQ(header.num_samples, 650000u);
  ASSERT_EQ(header.num_signals(), 2u);

  // Signal 0 carries only file + format: WFDB defaults apply.
  EXPECT_DOUBLE_EQ(header.signals[0].adc_gain, 200.0);
  EXPECT_EQ(header.signals[0].baseline, 0);
  EXPECT_EQ(header.signals[0].adc_resolution, 12);
  EXPECT_FALSE(header.signals[0].has_checksum);
  EXPECT_TRUE(header.signals[0].description.empty());

  EXPECT_DOUBLE_EQ(header.signals[1].adc_gain, 100.0);
  EXPECT_EQ(header.signals[1].baseline, 50);
  EXPECT_EQ(header.signals[1].units, "uV");
  EXPECT_EQ(header.signals[1].adc_resolution, 16);
  EXPECT_TRUE(header.signals[1].has_checksum);
  EXPECT_EQ(header.signals[1].checksum, 345);
  EXPECT_EQ(header.signals[1].description, "ECG lead II");
}

TEST(WfdbHeader, RecordLineDefaultsAndGainEdgeCases) {
  // Minimal record line: sampling rate defaults to 250 Hz.
  std::istringstream minimal("r1 1\nr1.dat 16\n");
  const auto header = io::parse_header(minimal);
  EXPECT_DOUBLE_EQ(header.fs_hz, 250.0);
  EXPECT_EQ(header.num_samples, 0u);

  // A gain of 0 means "unspecified" in WFDB: fall back to 200 adu/mV.
  std::istringstream zero_gain("r2 1 250 100\nr2.dat 16 0 16\n");
  EXPECT_DOUBLE_EQ(io::parse_header(zero_gain).signals[0].adc_gain, 200.0);

  // An omitted baseline defaults to adc_zero.
  std::istringstream adc_zero("r3 1 250 100\nr3.dat 16 200/mV 16 1024\n");
  const auto spec = io::parse_header(adc_zero).signals[0];
  EXPECT_EQ(spec.adc_zero, 1024);
  EXPECT_EQ(spec.baseline, 1024);

  // The description can follow a truncated field list.
  std::istringstream desc("r4 1\nr4.dat 212 200(0)/mV modified limb lead II\n");
  EXPECT_EQ(io::parse_header(desc).signals[0].description, "modified limb lead II");

  // Format 80 defaults to 8 significant bits.
  std::istringstream f80("r6 1\nr6.dat 80\n");
  EXPECT_EQ(io::parse_header(f80).signals[0].adc_resolution, 8);

  // A malformed gain-shaped token is rejected atomically: the spec keeps
  // every default and the token starts the description instead.
  std::istringstream malformed("r5 1\nr5.dat 16 500/ desc\n");
  const auto mspec = io::parse_header(malformed).signals[0];
  EXPECT_DOUBLE_EQ(mspec.adc_gain, 200.0);
  EXPECT_EQ(mspec.units, "mV");
  EXPECT_EQ(mspec.baseline, 0);
  EXPECT_EQ(mspec.description, "500/ desc");
}

TEST(WfdbHeader, RejectsMalformedInput) {
  std::istringstream empty("# nothing but comments\n");
  EXPECT_THROW(io::parse_header(empty), std::invalid_argument);
  std::istringstream bad_format("r 1\nr.dat 61\n");
  EXPECT_THROW(io::parse_header(bad_format), std::invalid_argument);
  std::istringstream missing_signal("r 2\nr.dat 16\n");
  EXPECT_THROW(io::parse_header(missing_signal), std::invalid_argument);
  std::istringstream multi_segment("a/b 1\nr.dat 16\n");
  EXPECT_THROW(io::parse_header(multi_segment), std::invalid_argument);
}

TEST(WfdbSignal, Format212RoundTripsBothParities) {
  const auto dir = test_dir("fmt212");
  for (const std::size_t n : {std::size_t{4096}, std::size_t{4097}}) {  // Even AND odd.
    const auto name = "e" + std::to_string(n);
    const auto adc = random_adc(n, io::format_min_value(212), io::format_max_value(212), n);
    io::write_record(dir, one_signal_header(name, 212), {adc});
    const auto record = io::read_record(dir, name);
    EXPECT_EQ(record.header.num_samples, n);
    ASSERT_EQ(record.adc.size(), 1u);
    EXPECT_EQ(record.adc[0], adc) << "parity " << n % 2;
    // The odd tail is a 2-byte half-group, not a padded 3-byte one.
    const auto bytes = std::filesystem::file_size(std::filesystem::path(dir) / (name + ".dat"));
    EXPECT_EQ(bytes, (n / 2) * 3 + (n % 2) * 2);
  }
}

TEST(WfdbSignal, Format16RoundTrips) {
  const auto dir = test_dir("fmt16");
  const std::size_t n = 1023;
  const auto adc = random_adc(n, io::format_min_value(16), io::format_max_value(16), 5);
  io::write_record(dir, one_signal_header("r16", 16), {adc});
  EXPECT_EQ(io::read_record(dir, "r16").adc[0], adc);
}

TEST(WfdbSignal, Format80RoundTripsOffsetBinary) {
  const auto dir = test_dir("fmt80");
  const std::size_t n = 777;
  auto adc = random_adc(n, io::format_min_value(80), io::format_max_value(80), 13);
  io::write_record(dir, one_signal_header("r80", 80), {adc});
  const auto record = io::read_record(dir, "r80");
  EXPECT_EQ(record.header.signals[0].adc_resolution, 8);
  EXPECT_EQ(record.adc[0], adc);

  // One byte per sample, stored as offset binary: byte == adc + 128, so
  // -128 encodes as 0x00, 0 as 0x80, +127 as 0xFF.
  const auto dat = std::filesystem::path(dir) / "r80.dat";
  ASSERT_EQ(std::filesystem::file_size(dat), n);
  std::ifstream f(dat, std::ios::binary);
  std::vector<char> bytes(n);
  f.read(bytes.data(), static_cast<std::streamsize>(n));
  for (std::size_t s = 0; s < n; ++s)
    ASSERT_EQ(static_cast<unsigned char>(bytes[s]), static_cast<unsigned>(adc[s] + 128))
        << "sample " << s;
}

TEST(WfdbSignal, Format80CorruptionAndRangeAreCaught) {
  const auto dir = test_dir("fmt80bad");
  const auto adc = random_adc(64, io::format_min_value(80), io::format_max_value(80), 17);
  io::write_record(dir, one_signal_header("c80", 80), {adc});
  const auto dat = std::filesystem::path(dir) / "c80.dat";

  // Flip one sample byte: the checksum must catch it.
  {
    std::fstream f(dat, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(9);
    f.put(static_cast<char>(static_cast<unsigned char>(adc[9] + 128) ^ 0x11));
  }
  EXPECT_THROW(io::read_record(dir, "c80"), std::invalid_argument);

  // Truncate by one byte: the size check must catch it.
  io::write_record(dir, one_signal_header("c80", 80), {adc});
  std::filesystem::resize_file(dat, std::filesystem::file_size(dat) - 1);
  EXPECT_THROW(io::read_record(dir, "c80"), std::invalid_argument);

  // Out-of-range samples rejected at write time, not wrapped into the byte.
  EXPECT_THROW(io::write_record(dir, one_signal_header("c80", 80), {{128}}),
               std::invalid_argument);
  EXPECT_THROW(io::write_record(dir, one_signal_header("c80", 80), {{-129}}),
               std::invalid_argument);
}

TEST(WfdbSignal, MultiChannelFramesDeinterleave) {
  const auto dir = test_dir("multi");
  for (const int format : {212, 16, 80}) {
    for (const std::size_t n : {std::size_t{100}, std::size_t{101}}) {
      auto header = one_signal_header("m" + std::to_string(format) + std::to_string(n), format);
      auto resp = header.signals[0];
      resp.units = "au";
      resp.description = "RESP";
      header.signals.insert(header.signals.begin(), resp);
      const auto lo = io::format_min_value(format);
      const auto hi = io::format_max_value(format);
      const auto ch0 = random_adc(n, lo, hi, 7 * n);
      const auto ch1 = random_adc(n, lo, hi, 9 * n);
      io::write_record(dir, header, {ch0, ch1});
      const auto record = io::read_record(dir, header.record_name);
      ASSERT_EQ(record.adc.size(), 2u);
      EXPECT_EQ(record.adc[0], ch0) << "format " << format << " n " << n;
      EXPECT_EQ(record.adc[1], ch1) << "format " << format << " n " << n;
      EXPECT_EQ(io::ecg_channel(record.header), 1u);  // "ECG lead I" beats "RESP".
    }
  }
}

TEST(WfdbSignal, EcgChannelFallsBackToUnitsThenFirst) {
  io::RecordHeader header = one_signal_header("r", 16);
  header.signals[0].description = "pressure";
  header.signals[0].units = "mmHg";
  auto mv = header.signals[0];
  mv.units = "mV";
  mv.description = "lead II";  // No "ecg" anywhere: units decide.
  header.signals.push_back(mv);
  EXPECT_EQ(io::ecg_channel(header), 1u);
  header.signals[1].units = "uV";
  EXPECT_EQ(io::ecg_channel(header), 0u);  // Nothing matches: first channel.
}

TEST(WfdbSignal, MvConversionAndQuantizationInvert) {
  const auto dir = test_dir("mv");
  // Non-round gain + non-zero baseline: both must survive the header's text
  // round-trip exactly for signal_mv to stay the inverse of quantize_mv.
  auto header = one_signal_header("q", 212, 201.3330078125, 37);
  const double gain = header.signals[0].adc_gain;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::vector<double> mv(501);
  for (auto& v : mv) v = dist(rng);
  const auto adc = io::quantize_signal_mv(mv, header.signals[0]);
  io::write_record(dir, header, {adc});
  const auto record = io::read_record(dir, "q");
  EXPECT_DOUBLE_EQ(record.header.signals[0].adc_gain, gain);
  const auto decoded_mv = record.signal_mv(0);
  ASSERT_EQ(decoded_mv.size(), mv.size());
  for (std::size_t s = 0; s < mv.size(); ++s) {
    // Quantisation error bounded by half an ADC step...
    EXPECT_NEAR(decoded_mv[s], mv[s], 0.5 / gain + 1e-12);
    // ...and re-quantising the decoded value is exact (the replay invariant:
    // a record round-trips through physical units without drift).
    EXPECT_EQ(io::quantize_mv(decoded_mv[s], record.header.signals[0]), adc[s]);
  }
}

TEST(WfdbSignal, CorruptFilesFailLoudly) {
  const auto dir = test_dir("corrupt");
  const auto adc = random_adc(100, io::format_min_value(212), io::format_max_value(212), 3);
  io::write_record(dir, one_signal_header("c", 212), {adc});
  const auto dat = std::filesystem::path(dir) / "c.dat";

  // Flip one sample byte: the checksum must catch it.
  {
    std::fstream f(dat, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(30);
    f.put(static_cast<char>(0x5A));
  }
  EXPECT_THROW(io::read_record(dir, "c"), std::invalid_argument);

  // Truncate by one byte: the size check must catch it (the half-byte trap).
  io::write_record(dir, one_signal_header("c", 212), {adc});
  std::filesystem::resize_file(dat, std::filesystem::file_size(dat) - 1);
  EXPECT_THROW(io::read_record(dir, "c"), std::invalid_argument);

  // Out-of-range samples must be rejected at write time, not wrapped.
  EXPECT_THROW(io::write_record(dir, one_signal_header("c", 212), {{2048}}),
               std::invalid_argument);
}

TEST(WfdbSignal, HeaderSampleCountIsCheckedBeforeAllocating) {
  // An 8-byte format-16 file holds 4 samples. Headers claiming far more are
  // refused from the file size alone: no multi-GB zero fill first, no
  // std::length_error, and no size_t wrap (4 signals x (2^62 + 1) samples is
  // 4 modulo 2^64, which an unchecked product would accept).
  const auto dir = test_dir("huge");
  {
    std::ofstream dat(std::filesystem::path(dir) / "h.dat", std::ios::binary);
    const char zeros[8] = {};
    dat.write(zeros, sizeof zeros);
  }
  const auto write_header = [&dir](int signals, const std::string& samples) {
    std::ofstream hea(std::filesystem::path(dir) / "h.hea", std::ios::trunc);
    hea << "h " << signals << " 250 " << samples << "\n";
    for (int s = 0; s < signals; ++s) hea << "h.dat 16 200 16 0 0\n";
  };
  write_header(1, "268435456");  // 2^28: a 1 GiB sample buffer.
  EXPECT_THROW(io::read_record(dir, "h"), std::invalid_argument);
  write_header(1, "2305843009213693952");  // 2^61: beyond vector::max_size.
  EXPECT_THROW(io::read_record(dir, "h"), std::invalid_argument);
  write_header(4, "4611686018427387905");  // 2^62 + 1 per signal.
  EXPECT_THROW(io::read_record(dir, "h"), std::invalid_argument);
  write_header(4, "1");  // The honest header still reads.
  EXPECT_EQ(io::read_record(dir, "h").adc.size(), 4u);
}

TEST(WfdbFixture, SyntheticCohortCoversFormatsParitiesAndChannels) {
  const auto dir = test_dir("fixture");
  io::CohortFixtureParams params;
  params.num_patients = 4;
  params.duration_s = 10.0;
  const auto written = io::write_synthetic_cohort(dir, params);
  ASSERT_EQ(written.size(), 4u);
  const auto names = io::read_records_index(dir);
  ASSERT_EQ(names.size(), 4u);

  bool saw_odd_212 = false, saw_even_212 = false, saw_16 = false, saw_multi = false;
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(names[i], written[i].name);
    const auto record = io::read_record(dir, written[i].name);
    EXPECT_DOUBLE_EQ(record.header.fs_hz, params.fs_hz);
    EXPECT_EQ(record.header.num_samples, written[i].num_samples);
    EXPECT_EQ(io::ecg_channel(record.header), written[i].ecg_channel);
    const auto& ecg_spec = record.header.signals[written[i].ecg_channel];
    EXPECT_EQ(ecg_spec.format, written[i].format);
    if (written[i].format == 212)
      (written[i].num_samples % 2 != 0 ? saw_odd_212 : saw_even_212) = true;
    else
      saw_16 = true;
    if (written[i].num_signals > 1) saw_multi = true;
    // The ECG channel is a plausible signal, not silence or saturation.
    const auto mv = record.signal_mv(written[i].ecg_channel);
    double peak = 0.0;
    for (const double v : mv) peak = std::max(peak, std::abs(v));
    EXPECT_GT(peak, 0.5);
    EXPECT_LT(peak, 10.0);
  }
  EXPECT_TRUE(saw_odd_212);
  EXPECT_TRUE(saw_even_212);
  EXPECT_TRUE(saw_16);
  EXPECT_TRUE(saw_multi);

  // Determinism: the same params rewrite byte-identical signal files.
  const auto dir2 = test_dir("fixture2");
  io::write_synthetic_cohort(dir2, params);
  for (const auto& rec : written) {
    std::ifstream a(std::filesystem::path(dir) / (rec.name + ".dat"), std::ios::binary);
    std::ifstream b(std::filesystem::path(dir2) / (rec.name + ".dat"), std::ios::binary);
    std::string bytes_a((std::istreambuf_iterator<char>(a)), std::istreambuf_iterator<char>());
    std::string bytes_b((std::istreambuf_iterator<char>(b)), std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes_a, bytes_b) << rec.name;
  }
}

}  // namespace
}  // namespace svt

#include "io/wfdb.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace svt::io {

namespace {

[[noreturn]] void fail(const std::string& what) { throw std::invalid_argument("wfdb: " + what); }

bool parse_long(const std::string& token, long& out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE) return false;
  out = value;
  return true;
}

bool parse_double(const std::string& token, double& out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE) return false;
  out = value;
  return true;
}

/// Gain field: `gain[(baseline)][/units]`. Returns false when the token is
/// not gain-shaped (it is then the description). A parsed gain of 0 means
/// "unspecified" in WFDB and falls back to the default.
bool parse_gain_spec(const std::string& token, SignalSpec& spec, bool& has_baseline) {
  const char* p = token.c_str();
  char* end = nullptr;
  errno = 0;
  const double gain = std::strtod(p, &end);
  if (end == p || errno == ERANGE) return false;
  p = end;
  bool baseline_present = false;
  long baseline = 0;
  if (*p == '(') {
    errno = 0;
    baseline = std::strtol(p + 1, &end, 10);
    if (end == p + 1 || *end != ')' || errno == ERANGE) return false;
    baseline_present = true;
    p = end + 1;
  }
  std::string units;
  if (*p == '/') {
    units.assign(p + 1);
    if (units.empty()) return false;
    p += 1 + units.size();
  }
  if (*p != '\0') return false;
  // Commit only after the token validated in full: a rejected token is the
  // free-text description and must leave the spec's defaults untouched.
  spec.adc_gain = gain > 0.0 ? gain : kDefaultAdcGain;
  if (baseline_present) {
    spec.baseline = static_cast<int>(baseline);
    has_baseline = true;
  }
  if (!units.empty()) spec.units = std::move(units);
  return true;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream iss(line);
  std::vector<std::string> tokens;
  std::string token;
  while (iss >> token) tokens.push_back(token);
  return tokens;
}

bool next_content_line(std::istream& is, std::string& line) {
  while (std::getline(is, line)) {
    std::size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '#') continue;
    const std::size_t last = line.find_last_not_of(" \t\r");
    line = line.substr(begin, last - begin + 1);
    return true;
  }
  return false;
}

SignalSpec parse_signal_line(const std::string& line) {
  const auto tokens = tokenize(line);
  if (tokens.size() < 2) fail("signal line needs at least a file name and a format: " + line);
  SignalSpec spec;
  spec.file_name = tokens[0];
  long format = 0;
  if (!parse_long(tokens[1], format) || (format != 212 && format != 16 && format != 80))
    fail("unsupported signal format '" + tokens[1] + "' (supported: 212, 16, 80)");
  spec.format = static_cast<int>(format);
  spec.adc_resolution = spec.format == 212 ? 12 : (spec.format == 80 ? 8 : 16);

  // Optional positional numeric fields; the first token that does not parse
  // as its slot starts the free-text description.
  std::size_t i = 2;
  bool has_baseline = false;
  if (i < tokens.size() && parse_gain_spec(tokens[i], spec, has_baseline)) ++i;
  long value = 0;
  bool has_adc_zero = false;
  if (i < tokens.size() && parse_long(tokens[i], value)) {
    spec.adc_resolution = static_cast<int>(value);
    ++i;
    if (i < tokens.size() && parse_long(tokens[i], value)) {
      spec.adc_zero = static_cast<int>(value);
      has_adc_zero = true;
      ++i;
      if (i < tokens.size() && parse_long(tokens[i], value)) {
        spec.init_value = static_cast<int>(value);
        ++i;
        if (i < tokens.size() && parse_long(tokens[i], value)) {
          spec.checksum = static_cast<std::int16_t>(value);
          spec.has_checksum = true;
          ++i;
          if (i < tokens.size() && parse_long(tokens[i], value)) ++i;  // block_size: unused.
        }
      }
    }
  }
  // WFDB: an omitted baseline defaults to adc_zero (itself defaulting to 0).
  if (!has_baseline && has_adc_zero) spec.baseline = spec.adc_zero;
  for (; i < tokens.size(); ++i) {
    if (!spec.description.empty()) spec.description += ' ';
    spec.description += tokens[i];
  }
  return spec;
}

std::vector<unsigned char> read_binary_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) fail("cannot open signal file " + path.string());
  std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(is)),
                                   std::istreambuf_iterator<char>());
  return bytes;
}

int sign_extend_12(unsigned v) {
  return static_cast<int>(v >= 2048u ? static_cast<long>(v) - 4096 : static_cast<long>(v));
}

/// Decode `total` samples in storage order (frames interleave the file's
/// signals) from a format-212 byte stream. A trailing odd sample occupies a
/// 2-byte half-group: low byte + the low nibble of the second byte.
std::vector<int> decode_212(const std::vector<unsigned char>& bytes, std::size_t total,
                            const std::string& file) {
  const std::size_t expected = (total / 2) * 3 + (total % 2) * 2;
  if (bytes.size() != expected)
    fail("signal file " + file + ": " + std::to_string(bytes.size()) + " bytes, expected " +
         std::to_string(expected) + " for " + std::to_string(total) + " format-212 samples");
  std::vector<int> samples(total);
  std::size_t b = 0;
  for (std::size_t s = 0; s + 1 < total; s += 2, b += 3) {
    samples[s] = sign_extend_12(static_cast<unsigned>(bytes[b]) |
                                ((static_cast<unsigned>(bytes[b + 1]) & 0x0Fu) << 8));
    samples[s + 1] = sign_extend_12(static_cast<unsigned>(bytes[b + 2]) |
                                    ((static_cast<unsigned>(bytes[b + 1]) >> 4) << 8));
  }
  if (total % 2 != 0)
    samples[total - 1] = sign_extend_12(static_cast<unsigned>(bytes[b]) |
                                        ((static_cast<unsigned>(bytes[b + 1]) & 0x0Fu) << 8));
  return samples;
}

std::vector<int> decode_16(const std::vector<unsigned char>& bytes, std::size_t total,
                           const std::string& file) {
  if (bytes.size() != total * 2)
    fail("signal file " + file + ": " + std::to_string(bytes.size()) + " bytes, expected " +
         std::to_string(total * 2) + " for " + std::to_string(total) + " format-16 samples");
  std::vector<int> samples(total);
  for (std::size_t s = 0; s < total; ++s) {
    const unsigned v = static_cast<unsigned>(bytes[2 * s]) |
                       (static_cast<unsigned>(bytes[2 * s + 1]) << 8);
    samples[s] = static_cast<int>(static_cast<std::int16_t>(v));
  }
  return samples;
}

void encode_212(const std::vector<int>& samples, std::vector<unsigned char>& bytes) {
  std::size_t s = 0;
  for (; s + 1 < samples.size(); s += 2) {
    const unsigned a = static_cast<unsigned>(samples[s]) & 0xFFFu;
    const unsigned b = static_cast<unsigned>(samples[s + 1]) & 0xFFFu;
    bytes.push_back(static_cast<unsigned char>(a & 0xFFu));
    bytes.push_back(static_cast<unsigned char>((a >> 8) | ((b >> 8) << 4)));
    bytes.push_back(static_cast<unsigned char>(b & 0xFFu));
  }
  if (s < samples.size()) {  // Odd tail: 2-byte half-group, high nibble clear.
    const unsigned a = static_cast<unsigned>(samples[s]) & 0xFFFu;
    bytes.push_back(static_cast<unsigned char>(a & 0xFFu));
    bytes.push_back(static_cast<unsigned char>(a >> 8));
  }
}

void encode_16(const std::vector<int>& samples, std::vector<unsigned char>& bytes) {
  for (const int v : samples) {
    const unsigned u = static_cast<unsigned>(v) & 0xFFFFu;
    bytes.push_back(static_cast<unsigned char>(u & 0xFFu));
    bytes.push_back(static_cast<unsigned char>(u >> 8));
  }
}

/// Format 80: one byte per sample, offset binary (stored byte = adc + 128).
std::vector<int> decode_80(const std::vector<unsigned char>& bytes, std::size_t total,
                           const std::string& file) {
  if (bytes.size() != total)
    fail("signal file " + file + ": " + std::to_string(bytes.size()) + " bytes, expected " +
         std::to_string(total) + " for " + std::to_string(total) + " format-80 samples");
  std::vector<int> samples(total);
  for (std::size_t s = 0; s < total; ++s) samples[s] = static_cast<int>(bytes[s]) - 128;
  return samples;
}

void encode_80(const std::vector<int>& samples, std::vector<unsigned char>& bytes) {
  for (const int v : samples) bytes.push_back(static_cast<unsigned char>(v + 128));
}

std::int16_t sample_checksum(const std::vector<int>& samples) {
  std::uint32_t sum = 0;
  for (const int v : samples) sum += static_cast<std::uint32_t>(v);
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(sum));
}

/// Signals sharing one signal file, in header order.
struct FileGroup {
  std::string file_name;
  int format = 0;
  std::vector<std::size_t> channels;
};

/// a * b + c, or false when that overflows std::size_t (b > 0).
bool checked_mul_add(std::size_t a, std::size_t b, std::size_t c, std::size_t& out) {
  if (a > (std::numeric_limits<std::size_t>::max() - c) / b) return false;
  out = a * b + c;
  return true;
}

/// Bytes that `total` samples of `format` occupy, or false on overflow.
/// Format 212 packs two samples in 3 bytes (an odd tail takes 2); 80 and 16
/// take 1 and 2 bytes per sample.
bool signal_bytes(int format, std::size_t total, std::size_t& out) {
  if (format == 212) return checked_mul_add(total / 2, 3, (total % 2) * 2, out);
  return checked_mul_add(total, format == 80 ? 1 : 2, 0, out);
}

/// Check a file group's signal file against the header before anything is
/// allocated for it: both the sample count and the channel count come from
/// the header, so the sample total and the byte count are overflow-checked,
/// then compared with the file's size on disk.
void check_signal_file_size(const std::filesystem::path& path, const FileGroup& group,
                            std::size_t num_samples) {
  std::size_t total = 0;
  std::size_t expected = 0;
  if (!checked_mul_add(num_samples, group.channels.size(), 0, total) ||
      !signal_bytes(group.format, total, expected))
    fail("signal file " + group.file_name + ": " + std::to_string(num_samples) + " samples x " +
         std::to_string(group.channels.size()) + " signals overflows the byte count");
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) fail("cannot open signal file " + path.string());
  if (size != expected)
    fail("signal file " + group.file_name + ": " + std::to_string(size) + " bytes, expected " +
         std::to_string(expected) + " for " + std::to_string(total) + " format-" +
         std::to_string(group.format) + " samples");
}

std::vector<FileGroup> group_by_file(const RecordHeader& header) {
  std::vector<FileGroup> groups;
  for (std::size_t c = 0; c < header.signals.size(); ++c) {
    const auto& spec = header.signals[c];
    FileGroup* group = nullptr;
    for (auto& g : groups)
      if (g.file_name == spec.file_name) group = &g;
    if (group == nullptr) {
      groups.push_back({spec.file_name, spec.format, {}});
      group = &groups.back();
    } else if (group->format != spec.format) {
      fail("signal file " + spec.file_name + " mixes formats " +
           std::to_string(group->format) + " and " + std::to_string(spec.format));
    }
    group->channels.push_back(c);
  }
  return groups;
}

}  // namespace

int format_min_value(int format) {
  if (format == 212) return -2048;
  if (format == 16) return -32768;
  if (format == 80) return -128;
  fail("unsupported format " + std::to_string(format));
}

int format_max_value(int format) {
  if (format == 212) return 2047;
  if (format == 16) return 32767;
  if (format == 80) return 127;
  fail("unsupported format " + std::to_string(format));
}

RecordHeader parse_header(std::istream& is) {
  std::string line;
  if (!next_content_line(is, line)) fail("empty header");
  const auto record_tokens = tokenize(line);
  if (record_tokens.size() < 2) fail("record line needs a name and a signal count: " + line);
  RecordHeader header;
  header.record_name = record_tokens[0];
  if (header.record_name.find('/') != std::string::npos)
    fail("multi-segment records are not supported: " + header.record_name);
  long num_signals = 0;
  if (!parse_long(record_tokens[1], num_signals) || num_signals <= 0)
    fail("bad signal count '" + record_tokens[1] + "'");
  if (record_tokens.size() >= 3) {
    double fs = 0.0;
    if (!parse_double(record_tokens[2], fs) || fs <= 0.0)
      fail("bad sampling rate '" + record_tokens[2] + "'");
    header.fs_hz = fs;
  }
  if (record_tokens.size() >= 4) {
    long num_samples = 0;
    if (!parse_long(record_tokens[3], num_samples) || num_samples < 0)
      fail("bad sample count '" + record_tokens[3] + "'");
    header.num_samples = static_cast<std::size_t>(num_samples);
  }
  for (long s = 0; s < num_signals; ++s) {
    if (!next_content_line(is, line))
      fail("header ends after " + std::to_string(s) + " of " + std::to_string(num_signals) +
           " signal lines");
    header.signals.push_back(parse_signal_line(line));
  }
  return header;
}

RecordHeader read_header(const std::string& dir, const std::string& record_name) {
  const auto path = std::filesystem::path(dir) / (record_name + ".hea");
  std::ifstream is(path);
  if (!is) fail("cannot open header " + path.string());
  return parse_header(is);
}

std::vector<double> WfdbRecord::signal_mv(std::size_t channel) const {
  if (channel >= adc.size())
    fail("channel " + std::to_string(channel) + " out of range (record has " +
         std::to_string(adc.size()) + ")");
  const auto& spec = header.signals[channel];
  std::vector<double> mv(adc[channel].size());
  for (std::size_t s = 0; s < mv.size(); ++s)
    mv[s] = static_cast<double>(adc[channel][s] - spec.baseline) / spec.adc_gain;
  return mv;
}

WfdbRecord read_record(const std::string& dir, const std::string& record_name) {
  WfdbRecord record;
  record.header = read_header(dir, record_name);
  const auto& header = record.header;
  if (header.num_samples == 0)
    fail("record " + record_name + " declares no sample count (required for decoding)");
  const auto groups = group_by_file(header);
  for (const auto& group : groups)
    check_signal_file_size(std::filesystem::path(dir) / group.file_name, group,
                           header.num_samples);
  record.adc.assign(header.num_signals(), std::vector<int>(header.num_samples));
  for (const auto& group : groups) {
    const auto path = std::filesystem::path(dir) / group.file_name;
    const auto bytes = read_binary_file(path);
    const std::size_t total = header.num_samples * group.channels.size();
    const auto flat = group.format == 212  ? decode_212(bytes, total, group.file_name)
                      : group.format == 80 ? decode_80(bytes, total, group.file_name)
                                           : decode_16(bytes, total, group.file_name);
    for (std::size_t t = 0; t < header.num_samples; ++t)
      for (std::size_t k = 0; k < group.channels.size(); ++k)
        record.adc[group.channels[k]][t] = flat[t * group.channels.size() + k];
  }
  for (std::size_t c = 0; c < header.num_signals(); ++c) {
    const auto& spec = header.signals[c];
    if (spec.has_checksum && sample_checksum(record.adc[c]) != spec.checksum)
      fail("record " + record_name + " signal " + std::to_string(c) +
           ": checksum mismatch (corrupt signal file?)");
  }
  return record;
}

void write_record(const std::string& dir, RecordHeader header,
                  const std::vector<std::vector<int>>& adc) {
  if (adc.empty() || adc.size() != header.num_signals())
    fail("write_record: " + std::to_string(adc.size()) + " sample series for " +
         std::to_string(header.num_signals()) + " declared signals");
  header.num_samples = adc[0].size();
  for (std::size_t c = 0; c < adc.size(); ++c) {
    auto& spec = header.signals[c];
    if (adc[c].size() != header.num_samples)
      fail("write_record: ragged sample series (signal " + std::to_string(c) + ")");
    if (spec.adc_gain <= 0.0) fail("write_record: non-positive gain");
    const int lo = format_min_value(spec.format);
    const int hi = format_max_value(spec.format);
    for (const int v : adc[c])
      if (v < lo || v > hi)
        fail("write_record: sample " + std::to_string(v) + " outside format-" +
             std::to_string(spec.format) + " range [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]");
    spec.init_value = adc[c].empty() ? 0 : adc[c].front();
    spec.checksum = sample_checksum(adc[c]);
    spec.has_checksum = true;
  }

  std::filesystem::create_directories(dir);
  const auto groups = group_by_file(header);
  for (const auto& group : groups) {
    std::vector<int> flat(header.num_samples * group.channels.size());
    for (std::size_t t = 0; t < header.num_samples; ++t)
      for (std::size_t k = 0; k < group.channels.size(); ++k)
        flat[t * group.channels.size() + k] = adc[group.channels[k]][t];
    std::vector<unsigned char> bytes;
    bytes.reserve(group.format == 212  ? (flat.size() / 2) * 3 + 2
                  : group.format == 80 ? flat.size()
                                       : flat.size() * 2);
    if (group.format == 212)
      encode_212(flat, bytes);
    else if (group.format == 80)
      encode_80(flat, bytes);
    else
      encode_16(flat, bytes);
    const auto path = std::filesystem::path(dir) / group.file_name;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) fail("cannot write signal file " + path.string());
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  }

  const auto hea_path = std::filesystem::path(dir) / (header.record_name + ".hea");
  std::ofstream os(hea_path, std::ios::trunc);
  if (!os) fail("cannot write header " + hea_path.string());
  // Full double precision, so a non-round gain or sampling rate survives the
  // text round-trip and signal_mv stays the exact inverse of quantize_mv.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << header.record_name << ' ' << header.num_signals() << ' ' << header.fs_hz << ' '
     << header.num_samples << '\n';
  for (const auto& spec : header.signals) {
    os << spec.file_name << ' ' << spec.format << ' ' << spec.adc_gain << '(' << spec.baseline
       << ")/" << spec.units << ' ' << spec.adc_resolution << ' ' << spec.adc_zero << ' '
       << spec.init_value << ' ' << spec.checksum << " 0";
    if (!spec.description.empty()) os << ' ' << spec.description;
    os << '\n';
  }
  if (!os) fail("failed writing header " + hea_path.string());
}

int quantize_mv(double mv, const SignalSpec& spec) {
  if (spec.adc_gain <= 0.0) fail("quantize_mv: non-positive gain");
  const double adc = std::round(mv * spec.adc_gain) + static_cast<double>(spec.baseline);
  const double lo = format_min_value(spec.format);
  const double hi = format_max_value(spec.format);
  return static_cast<int>(std::min(std::max(adc, lo), hi));
}

std::vector<int> quantize_signal_mv(std::span<const double> mv, const SignalSpec& spec) {
  std::vector<int> adc(mv.size());
  for (std::size_t s = 0; s < mv.size(); ++s) adc[s] = quantize_mv(mv[s], spec);
  return adc;
}

std::size_t ecg_channel(const RecordHeader& header) {
  auto contains_ecg = [](const std::string& text) {
    for (std::size_t i = 0; i + 3 <= text.size(); ++i)
      if (std::tolower(static_cast<unsigned char>(text[i])) == 'e' &&
          std::tolower(static_cast<unsigned char>(text[i + 1])) == 'c' &&
          std::tolower(static_cast<unsigned char>(text[i + 2])) == 'g')
        return true;
    return false;
  };
  for (std::size_t c = 0; c < header.signals.size(); ++c)
    if (contains_ecg(header.signals[c].description)) return c;
  for (std::size_t c = 0; c < header.signals.size(); ++c)
    if (header.signals[c].units == "mV") return c;
  return 0;
}

std::vector<std::string> read_records_index(const std::string& dir) {
  const auto path = std::filesystem::path(dir) / "RECORDS";
  std::ifstream is(path);
  if (!is) fail("cannot open record index " + path.string());
  std::vector<std::string> names;
  std::string line;
  while (next_content_line(is, line)) names.push_back(line);
  if (names.empty()) fail("record index " + path.string() + " lists no records");
  return names;
}

void write_records_index(const std::string& dir, const std::vector<std::string>& names) {
  std::filesystem::create_directories(dir);
  const auto path = std::filesystem::path(dir) / "RECORDS";
  std::ofstream os(path, std::ios::trunc);
  if (!os) fail("cannot write record index " + path.string());
  for (const auto& name : names) os << name << '\n';
  if (!os) fail("failed writing record index " + path.string());
}

}  // namespace svt::io

// PhysioNet/WFDB-compatible record ingest.
//
// Long-term ECG archives (MIT-BIH, CHB-MIT, the long-term databases the
// paper's cohort resembles) ship as WFDB records: a text header
// (`record.hea`) describing the signals, plus binary signal files holding
// interleaved ADC samples. This module implements the subset the streaming
// runtime needs to replay recorded wards:
//
//  * header parsing — record line (name, signal count, sampling rate,
//    samples per signal), per-signal lines (file name, storage format,
//    gain/baseline/units, ADC resolution/zero, checksum, description),
//    comment lines, and the WFDB defaults (gain 200 adu/mV, baseline 0)
//    when fields are omitted;
//  * signal decoding for format 212 (two 12-bit two's-complement samples
//    packed into 3 bytes; a record with an odd total sample count ends in a
//    2-byte half-group), format 16 (little-endian int16), and format 80
//    (one byte per sample in offset binary: stored byte = adc + 128, so the
//    representable range is [-128, 127]), with multi-channel frames
//    de-interleaved per signal;
//  * ADC-units -> physical-units (mV) conversion via each signal's
//    gain/baseline;
//  * a matching writer, so the offline dev box can generate fixture records
//    from the synthetic cohort. read∘write is bit-exact on ADC samples
//    (asserted for both 212 parities by tests/test_wfdb.cpp), and
//    quantize_mv∘signal_mv is the identity on in-range samples, so a
//    record round-trips through physical units without drift.
//
// Everything throws std::invalid_argument on malformed input (bad header
// fields, unsupported formats, signal files whose size disagrees with the
// header, checksum mismatches) — a replay driver should fail loudly on a
// corrupt archive rather than stream garbage into a ward.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace svt::io {

/// WFDB default gain when the header omits it: 200 ADC units per mV.
inline constexpr double kDefaultAdcGain = 200.0;

/// One signal (channel) of a record, as described by its header line.
struct SignalSpec {
  std::string file_name;        ///< Signal file holding this channel.
  int format = 16;              ///< Storage format: 212, 16, or 80.
  double adc_gain = kDefaultAdcGain;  ///< ADC units per mV.
  int baseline = 0;             ///< ADC value corresponding to 0 mV.
  int adc_resolution = 12;      ///< Significant bits per sample.
  int adc_zero = 0;             ///< Mid-range ADC value.
  int init_value = 0;           ///< First sample (informational).
  bool has_checksum = false;    ///< Whether the header carried a checksum.
  std::int16_t checksum = 0;    ///< 16-bit signed sum of all samples.
  std::string units = "mV";
  std::string description;
};

/// Parsed record header (`<name>.hea`).
struct RecordHeader {
  std::string record_name;
  double fs_hz = 250.0;       ///< WFDB default sampling rate.
  std::size_t num_samples = 0;  ///< Samples per signal.
  std::vector<SignalSpec> signals;

  std::size_t num_signals() const { return signals.size(); }
  double duration_s() const {
    return fs_hz > 0.0 ? static_cast<double>(num_samples) / fs_hz : 0.0;
  }
};

/// Parse a header from a stream (comment lines beginning with '#' are
/// skipped anywhere; missing gain/baseline fall back to the WFDB defaults).
RecordHeader parse_header(std::istream& is);

/// Read and parse `<dir>/<record>.hea`.
RecordHeader read_header(const std::string& dir, const std::string& record_name);

/// A fully decoded record: header + per-signal ADC sample series.
struct WfdbRecord {
  RecordHeader header;
  std::vector<std::vector<int>> adc;  ///< [signal][sample], ADC units.

  /// Convert one channel to physical units: (adc - baseline) / gain, in mV.
  std::vector<double> signal_mv(std::size_t channel) const;
};

/// Read `<dir>/<record>.hea` plus every signal file it references,
/// de-interleaving multi-channel frames and validating file sizes and (when
/// present) per-signal checksums. Every signal file's size is checked
/// against the header before any sample storage is allocated, so a header
/// claiming more samples than its files hold fails fast with
/// std::invalid_argument.
WfdbRecord read_record(const std::string& dir, const std::string& record_name);

/// Write `<dir>/<header.record_name>.hea` and the signal file(s): samples
/// interleaved frame by frame per signal file, packed per each signal's
/// format. `adc[s]` must all have equal length (which becomes
/// header.num_samples); init_value and checksum fields are computed here.
/// Throws std::invalid_argument on ragged input, an unsupported format, or
/// samples outside the format's representable range.
void write_record(const std::string& dir, RecordHeader header,
                  const std::vector<std::vector<int>>& adc);

/// Quantise a physical-units sample to ADC units through a signal's
/// gain/baseline, clamped to the format's representable range. Inverse of
/// signal_mv for in-range samples: quantize_mv(signal_mv(adc)) == adc.
int quantize_mv(double mv, const SignalSpec& spec);

/// Quantise a whole mV series (see quantize_mv).
std::vector<int> quantize_signal_mv(std::span<const double> mv, const SignalSpec& spec);

/// Pick the ECG channel of a multi-signal record: the first signal whose
/// description contains "ecg" (case-insensitive), else the first with units
/// "mV", else channel 0.
std::size_t ecg_channel(const RecordHeader& header);

/// Smallest/largest ADC value representable in a storage format.
int format_min_value(int format);
int format_max_value(int format);

/// Read the record names listed in `<dir>/RECORDS` (one per line, comments
/// and blank lines skipped). Throws if the index is missing or empty.
std::vector<std::string> read_records_index(const std::string& dir);

/// Write `<dir>/RECORDS`.
void write_records_index(const std::string& dir, const std::vector<std::string>& names);

}  // namespace svt::io

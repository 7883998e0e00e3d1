// Per-layer metrics of the traced run.
//
// Two sources, both timed from the benchmark's own files:
//  * live spans of the traced engine run: the generator's push calls,
//    admissions and registry installs, the decorator Workloads around each
//    in-tree workload's extract, and the result sink;
//  * single-threaded layer passes over the workload's own inputs, for layers
//    whose calls happen inside the engine: the lane QRS detector, the
//    quality gate, window extraction, classification, model loading, the
//    wire codec, WFDB decode and the tailoring flow.
// Live extract spans carry a hash of the window's substrate; the extraction
// pass maps each (recording, window) to its hash, which ties every delivered
// result to the extract call that served it (queue wait, delivery time).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "core/feature_selection.hpp"
#include "core/quantize.hpp"
#include "core/sv_budget.hpp"
#include "core/tailoring.hpp"
#include "ecg/dataset.hpp"
#include "ecg/lane_qrs.hpp"
#include "ecg/quality.hpp"
#include "features/extractor.hpp"
#include "io/wfdb.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "rt/packed_kernel.hpp"
#include "svm/kernel.hpp"
#include "svm/scaler.hpp"
#include "svm/trainer.hpp"

namespace wb {
namespace {

constexpr int kPassReps = 3;  ///< Layer passes repeat; the median is reported.

double seconds_since(std::int64_t t0) { return 1e-9 * static_cast<double>(now_ns() - t0); }

template <typename Body>
double median_of_reps(Body&& body) {
  std::vector<double> v;
  for (int k = 0; k < kPassReps; ++k) v.push_back(body());
  return median(v);
}

std::size_t chunk_count(const Recording& r, std::size_t chunk) {
  return (r.mv.size() + chunk - 1) / chunk;
}

std::span<const double> chunk_of(const Recording& r, std::size_t c, std::size_t chunk) {
  const std::size_t off = c * chunk;
  return std::span(r.mv).subspan(off, std::min(chunk, r.mv.size() - off));
}

// --- ecg: lane QRS and the quality gate ---------------------------------------

struct QrsPass {
  double ns_per_sample = 0.0;
  double vector_fraction = 0.0;
};

/// LaneQrsDetector::push over the recordings in packs of kMaxLanes (the
/// engine's first-fit lane claim), one chunk per lane per round.
QrsPass qrs_pass(const LayerInputs& in) {
  QrsPass out;
  out.ns_per_sample = median_of_reps([&] {
    std::uint64_t samples = 0, vec = 0, scalar = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t base = 0; base < in.recordings.size(); base += ecg::LaneQrsDetector::kMaxLanes) {
      const std::size_t lanes = std::min(ecg::LaneQrsDetector::kMaxLanes, in.recordings.size() - base);
      ecg::LaneQrsDetector detector(in.config.fs_hz);
      std::vector<std::size_t> slot(lanes);
      std::size_t rounds = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        slot[l] = detector.add_lane();
        rounds = std::max(rounds, chunk_count(*in.recordings[base + l], in.chunk));
      }
      std::vector<ecg::LaneQrsDetector::LaneChunk> round;
      for (std::size_t c = 0; c < rounds; ++c) {
        round.clear();
        for (std::size_t l = 0; l < lanes; ++l)
          if (c < chunk_count(*in.recordings[base + l], in.chunk)) {
            round.push_back({slot[l], chunk_of(*in.recordings[base + l], c, in.chunk)});
            samples += round.back().samples.size();
          }
        detector.push(round);
        for (const auto& lc : round) detector.drop_beats_before(lc.lane, detector.samples_seen(lc.lane));
      }
      vec += detector.vector_samples();
      scalar += detector.scalar_samples();
    }
    const double secs = seconds_since(t0);
    out.vector_fraction = static_cast<double>(vec) / static_cast<double>(std::max<std::uint64_t>(1, vec + scalar));
    return 1e9 * secs / static_cast<double>(samples);
  });
  return out;
}

/// SignalQualityGate::scan per recording, chunk by chunk. Workloads that run
/// the gate off are scanned with the default thresholds.
double gate_pass(const LayerInputs& in) {
  ecg::QualityConfig config = in.config.quality;
  config.enable = true;
  return median_of_reps([&] {
    std::uint64_t samples = 0;
    const std::int64_t t0 = now_ns();
    for (const Recording* r : in.recordings) {
      ecg::SignalQualityGate gate(config, in.config.fs_hz);
      for (std::size_t c = 0; c < chunk_count(*r, in.chunk); ++c) {
        const auto chunk = chunk_of(*r, c, in.chunk);
        gate.scan(chunk, static_cast<std::int64_t>(c * in.chunk));
        samples += chunk.size();
      }
    }
    return 1e9 * seconds_since(t0) / static_cast<double>(samples);
  });
}

// --- rt extraction -----------------------------------------------------------

struct Extracted {
  std::size_t recording = 0;
  rt::ExtractedWindow window;
};

struct ExtractPass {
  double us_per_window = 0.0;       ///< push_batch + end_patient per window position.
  double workload_us = 0.0;         ///< Decorator time per window position (all workloads).
  double seizure_us = 0.0;
  double af_us = 0.0;
  std::vector<Extracted> windows;   ///< Every emitted window, in emission order.
  /// Substrate hash of each (recording, window position).
  std::vector<std::vector<std::uint64_t>> hashes;
};

/// WindowExtractor::push_batch over the same rounds as the QRS pass, with
/// timing decorators around the workloads, then end_patient per stream.
ExtractPass extract_pass(const LayerInputs& in, bool with_af) {
  ExtractPass out;  // Windows and hashes of the last repetition (all are identical).
  std::vector<double> total_us, seizure_us, af_us;
  for (int rep = 0; rep < kPassReps; ++rep) {
    out.windows.clear();
    out.hashes.assign(in.recordings.size(), {});
    Tracer tracer;
    rt::StreamConfig config = in.config;
    config.workloads = serving_workloads(with_af, &tracer, nullptr, Options{});
    rt::WindowExtractor extractor(config);
    const rt::WindowSink sink = [&](rt::ExtractedWindow&& w) {
      const auto r = static_cast<std::size_t>(w.patient_id);
      if (w.workload == 0) out.hashes[r].push_back(tracer.local().spans.back().id);
      out.windows.push_back({r, std::move(w)});
    };
    std::size_t rounds = 0;
    for (const Recording* r : in.recordings) rounds = std::max(rounds, chunk_count(*r, in.chunk));
    std::vector<rt::WindowExtractor::PatientChunk> round;
    const std::int64_t t0 = now_ns();
    for (std::size_t c = 0; c < rounds; ++c) {
      round.clear();
      for (std::size_t r = 0; r < in.recordings.size(); ++r)
        if (c < chunk_count(*in.recordings[r], in.chunk))
          round.push_back({static_cast<int>(r), chunk_of(*in.recordings[r], c, in.chunk)});
      extractor.push_batch(round, sink);
      // A stream whose recording ended this round is discharged.
      for (std::size_t r = 0; r < in.recordings.size(); ++r)
        if (c + 1 == chunk_count(*in.recordings[r], in.chunk)) extractor.end_patient(static_cast<int>(r), sink);
    }
    const double total_s = seconds_since(t0);
    double seizure_s = 0.0, af_s = 0.0;
    for (const auto& t : tracer.threads())
      for (const Span& s : t->spans)
        (s.kind == SpanKind::kExtractAf ? af_s : seizure_s) += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    const double positions = static_cast<double>(out.windows.size()) / static_cast<double>(config.workloads.size());
    total_us.push_back(1e6 * total_s / positions);
    seizure_us.push_back(1e6 * seizure_s / positions);
    af_us.push_back(1e6 * af_s / positions);
  }
  out.us_per_window = median(total_us);
  out.seizure_us = median(seizure_us);
  out.af_us = median(af_us);
  out.workload_us = out.seizure_us + out.af_us;
  return out;
}

// --- rt classification and model load ----------------------------------------

/// ServableModel::prepare_row + the decision kernel, per patient, in batches
/// of `batch` window positions (the engine's per-chunk batches).
double classify_pass(const LayerInputs& in, const ExtractPass& ex, std::size_t batch) {
  const std::size_t W = in.with_af ? 2 : 1;
  // Group each recording's windows per workload, in stream order.
  std::vector<std::vector<std::vector<const rt::ExtractedWindow*>>> by(in.recordings.size(),
                                                                          std::vector<std::vector<const rt::ExtractedWindow*>>(W));
  for (const Extracted& e : ex.windows) by[e.recording][e.window.workload].push_back(&e.window);
  rt::KernelScratch scratch;
  std::vector<std::vector<double>> rows;
  std::vector<double> values;
  volatile double sink = 0.0;
  return median_of_reps([&] {
    std::size_t positions = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t r = 0; r < in.recordings.size(); ++r)
      for (std::size_t w = 0; w < W; ++w) {
        const auto& model = *in.models[r][w];
        const auto& list = by[r][w];
        if (w == 0) positions += list.size();
        for (std::size_t i = 0; i < list.size(); i += batch) {
          const std::size_t m = std::min(batch, list.size() - i);
          if (rows.size() < m) rows.resize(m);
          for (std::size_t k = 0; k < m; ++k) model.prepare_row(list[i + k]->features_view(), rows[k]);
          const std::span<const std::vector<double>> view(rows.data(), m);
          if (model.quantized()) {
            model.quantized()->dequantized_decisions(view, scratch, values);
          } else {
            values.resize(m);
            model.packed()->decision_values(view, values, scratch);
          }
          sink = sink + values[0];
        }
      }
    return 1e6 * seconds_since(t0) / static_cast<double>(std::max<std::size_t>(1, positions));
  });
}

double model_load_pass(const LayerInputs& in) {
  return median_of_reps([&] {
    const std::int64_t t0 = now_ns();
    for (const std::string& text : in.model_texts) {
      std::istringstream is(text);
      (void)rt::ServableModel::load(is);
    }
    return 1e3 * seconds_since(t0) / static_cast<double>(in.model_texts.size());
  });
}

// --- net ---------------------------------------------------------------------

double decode_ns_per_byte(const std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) return 0.0;
  return median_of_reps([&] {
    net::FrameDecoder decoder;
    std::size_t frames = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t off = 0; off < bytes.size(); off += 64 * 1024) {
      decoder.feed(std::span(bytes).subspan(off, std::min<std::size_t>(64 * 1024, bytes.size() - off)));
      net::FrameDecoder::Frame frame;
      while (decoder.next(frame) == net::FrameDecoder::Status::kFrame) ++frames;
    }
    if (frames == 0) return 0.0;
    return 1e9 * seconds_since(t0) / static_cast<double>(bytes.size());
  });
}

struct WirePass {
  double send_us = 0.0;
  double bytes_in_per_window = 0.0;
  double bytes_out_per_window = 0.0;
  std::vector<std::uint8_t> decisions;
};

/// The workload's traffic on the wire, for workloads served in process:
/// every chunk as a sample frame sent over a Unix-domain socket to a
/// draining reader, every extracted window as a decision record.
WirePass wire_pass(const LayerInputs& in, const ExtractPass& ex, const Options& options) {
  WirePass out;
  const std::string path = options.out_dir + "/wire-" + std::to_string(::getpid()) + ".sock";
  net::Listener listener = net::Listener::listen(net::Endpoint::unix_path(path));
  net::Socket client = net::connect_to(listener.local_endpoint());
  net::Socket server = listener.accept();
  std::thread drain([&server] {
    std::vector<std::uint8_t> buf(64 * 1024);
    while (server.recv_some(buf) > 0) {
    }
  });
  std::vector<double> sends;
  std::vector<std::uint8_t> frame;
  std::uint64_t bytes_in = 0;
  for (std::size_t r = 0; r < in.recordings.size(); ++r)
    for (std::size_t c = 0; c < chunk_count(*in.recordings[r], in.chunk); ++c) {
      frame.clear();
      net::append_sample_chunk(frame, static_cast<std::int32_t>(r), chunk_of(*in.recordings[r], c, in.chunk));
      bytes_in += frame.size();
      const std::int64_t t0 = now_ns();
      client.send_all(frame);
      sends.push_back(1e6 * seconds_since(t0));
    }
  client.shutdown_both();
  drain.join();
  listener.close();
  std::filesystem::remove(path);
  out.send_us = median(sends);
  // One decision frame per emitted window (the engine's per-chunk batches
  // hold one window position per patient in steady state).
  const std::size_t W = in.with_af ? 2 : 1;
  for (std::size_t i = 0; i + W <= ex.windows.size(); i += W) {
    std::vector<net::DecisionRecord> records;
    for (std::size_t w = 0; w < W; ++w) {
      const rt::ExtractedWindow& e = ex.windows[i + w].window;
      net::DecisionRecord d;
      d.start_s = e.start_s;
      d.num_beats = static_cast<std::uint32_t>(e.num_beats);
      d.workload = e.workload;
      d.quality = e.quality;
      records.push_back(d);
    }
    net::append_decisions(out.decisions, static_cast<std::int32_t>(ex.windows[i].recording), records);
  }
  const double positions = static_cast<double>(ex.windows.size()) / static_cast<double>(W);
  out.bytes_in_per_window = static_cast<double>(bytes_in) / positions;
  out.bytes_out_per_window = static_cast<double>(out.decisions.size()) / positions;
  return out;
}

// --- io ------------------------------------------------------------------------

/// Write the workload's first recordings as format-16 WFDB records, then
/// time io::read_record over them.
double io_pass(const LayerInputs& in, const Options& options) {
  const std::string dir = options.out_dir + "/io-" + std::to_string(::getpid());
  std::vector<std::string> names;
  std::uintmax_t bytes = 0;
  for (std::size_t r = 0; r < std::min<std::size_t>(4, in.recordings.size()); ++r) {
    io::RecordHeader header;
    header.record_name = "r" + std::to_string(r);
    header.fs_hz = in.config.fs_hz;
    io::SignalSpec spec;
    spec.file_name = header.record_name + ".dat";
    spec.format = 16;
    spec.description = "ECG";
    header.signals = {spec};
    io::write_record(dir, header, {io::quantize_signal_mv(in.recordings[r]->mv, spec)});
    names.push_back(header.record_name);
    bytes += std::filesystem::file_size(dir + "/" + spec.file_name);
  }
  const double mb_per_s = median_of_reps([&] {
    const std::int64_t t0 = now_ns();
    for (const std::string& name : names) (void)io::read_record(dir, name);
    return static_cast<double>(bytes) / (1024.0 * 1024.0) / seconds_since(t0);
  });
  std::filesystem::remove_all(dir);
  return mb_per_s;
}

// --- core / svm ------------------------------------------------------------------

struct CorePass {
  double tailor_ms = 0.0, select_ms = 0.0, train_ms = 0.0, budget_ms = 0.0, quantize_ms = 0.0;
};

/// The tailoring flow on one patient's training windows (cohort patient 0 of
/// the RR-level generator's fixed cohort, as paper-ward tailors on): the
/// whole flow, then each step.
CorePass core_pass() {
  const auto matrix = features::extract_feature_matrix(ecg::generate_dataset(ecg::DatasetParams{}));
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (std::size_t i = 0; i < matrix.size(); ++i)
    if (matrix.patient_id[i] == 0) {
      x.push_back(matrix.samples[i]);
      y.push_back(matrix.labels[i]);
    }
  core::TailoringConfig point;  // The paper's design point: 30 features, 68 SVs, 9 bits.
  CorePass out;
  out.tailor_ms = median_of_reps([&] {
    const std::int64_t t0 = now_ns();
    (void)core::tailor_detector(x, y, point);
    return 1e3 * seconds_since(t0);
  });
  core::SelectionOrder order;
  out.select_ms = median_of_reps([&] {
    const std::int64_t t0 = now_ns();
    order = core::rank_features_by_redundancy(x);
    return 1e3 * seconds_since(t0);
  });
  const auto keep = order.keep_set(point.num_features);
  std::vector<std::vector<double>> xs;
  for (const auto& row : x) {
    std::vector<double> sel;
    for (const std::size_t f : keep) sel.push_back(row[f]);
    xs.push_back(std::move(sel));
  }
  svm::StandardScaler scaler;
  scaler.fit(xs);
  xs = scaler.transform_all(xs);
  svm::SvmModel model;
  out.train_ms = median_of_reps([&] {
    const std::int64_t t0 = now_ns();
    model = svm::train_svm(xs, y, svm::quadratic_kernel(), point.train);
    return 1e3 * seconds_since(t0);
  });
  core::BudgetParams budget;
  budget.budget = std::min<std::size_t>(point.sv_budget, std::max<std::size_t>(1, model.support_vectors.size() / 2));
  svm::SvmModel budgeted;
  out.budget_ms = median_of_reps([&] {
    const std::int64_t t0 = now_ns();
    budgeted = core::budget_support_vectors(model, xs, y, point.train, budget);
    return 1e3 * seconds_since(t0);
  });
  out.quantize_ms = median_of_reps([&] {
    const std::int64_t t0 = now_ns();
    (void)core::QuantizedModel::build(budgeted, core::QuantConfig{});
    return 1e3 * seconds_since(t0);
  });
  return out;
}

// --- Live spans ----------------------------------------------------------------

struct Occurrence {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Chrome trace-event JSON (opens in Perfetto / chrome://tracing): one
/// complete event per span, at most `cap` of them.
void write_chrome_trace(const Tracer& tracer, const std::string& path, std::size_t cap) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  std::int64_t origin = INT64_MAX;
  for (const auto& t : tracer.threads())
    for (const Span& s : t->spans)
      if (s.kind != SpanKind::kResult) origin = std::min(origin, s.start_ns);
  std::size_t written = 0;
  for (const auto& t : tracer.threads())
    out << (written++ ? ",\n" : "") << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << t->tid
        << ", \"args\": {\"name\": \"thread " << t->tid << "\"}}";
  const std::size_t per_thread = cap / std::max<std::size_t>(1, tracer.threads().size());
  for (const auto& t : tracer.threads()) {
    std::size_t n = 0;
    for (const Span& s : t->spans) {
      if (s.kind == SpanKind::kResult) continue;
      if (++n > per_thread) break;
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\": \"%s\", \"cat\": \"wardbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": \"%s\", \"n\": %u}}",
                    span_name(s.kind), t->tid, 1e-3 * static_cast<double>(s.start_ns - origin),
                    1e-3 * static_cast<double>(s.end_ns - s.start_ns), hex(s.id).c_str(), s.aux);
      out << buf;
    }
  }
  out << "\n]}\n";
}

}  // namespace

std::vector<Metric> layer_metrics(WardWorkload& workload, const Options& options,
                                  const RunStats& untraced, const RunStats& traced,
                                  const Tracer& tracer) {
  const LayerInputs in = workload.layer_inputs();
  const std::size_t W = in.with_af ? 2 : 1;

  // Live spans.
  std::vector<double> push_us, admit_us;
  double seizure_s = 0.0, af_s = 0.0, worker_cpu_s = 0.0, sink_s = 0.0;
  std::uint64_t seizure_calls = 0, af_calls = 0, sink_calls = 0, sink_results = 0;
  std::unordered_map<std::uint64_t, std::vector<Occurrence>> seizure_at, af_at;
  struct Delivered {
    std::int64_t pushed = 0, arrived = 0;
    std::uint64_t key = 0;
    std::uint32_t workload = 0;
  };
  std::vector<Delivered> results;
  for (const auto& t : tracer.threads()) {
    bool worker = false;
    for (const Span& s : t->spans) {
      const double us = 1e-3 * static_cast<double>(s.end_ns - s.start_ns);
      switch (s.kind) {
        case SpanKind::kPush: push_us.push_back(us); break;
        case SpanKind::kAdmit: admit_us.push_back(us); push_us.push_back(us); break;
        case SpanKind::kExtractSeizure:
          worker = true;
          seizure_s += 1e-6 * us;
          ++seizure_calls;
          seizure_at[s.id].push_back({s.start_ns, s.end_ns});
          break;
        case SpanKind::kExtractAf:
          worker = true;
          af_s += 1e-6 * us;
          ++af_calls;
          af_at[s.id].push_back({s.start_ns, s.end_ns});
          break;
        case SpanKind::kSink:
          ++sink_calls;
          sink_results += s.aux;
          sink_s += 1e-6 * us;
          break;
        case SpanKind::kResult: results.push_back({s.start_ns, s.end_ns, s.id, s.aux}); break;
        case SpanKind::kInstall: break;
      }
    }
    if (worker) worker_cpu_s += t->cpu_s;
  }

  // Single-threaded layer passes.
  const QrsPass qrs = qrs_pass(in);
  const double gate_ns = gate_pass(in);
  const ExtractPass ex = extract_pass(in, in.with_af);
  const double af_side_us = in.with_af ? ex.af_us : extract_pass(in, true).af_us;
  const double batch_positions =
      sink_calls == 0 ? 1.0 : static_cast<double>(sink_results) / static_cast<double>(sink_calls) / static_cast<double>(W);
  const double classify_us = classify_pass(in, ex, std::max<std::size_t>(1, std::llround(batch_positions)));
  const double load_ms = model_load_pass(in);
  const CorePass core = core_pass();
  const WirePass wire = wire_pass(in, ex, options);
  const double decode_ns = decode_ns_per_byte(wire.decisions);
  const double io_mb_per_s = io_pass(in, options);

  // Queue wait and delivery: tie each result to the extract call that served
  // its window through the substrate hash. Per (hash, workload) the k-th
  // result to arrive pairs with the k-th extract call.
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::vector<const Delivered*>> by_hash;
  for (const Delivered& d : results) {
    const auto [r, i] = workload.locate(static_cast<std::uint32_t>(d.key >> 32), static_cast<std::uint32_t>(d.key));
    const std::size_t pos = i / W;
    if (r < ex.hashes.size() && pos < ex.hashes[r].size()) by_hash[{ex.hashes[r][pos], d.workload}].push_back(&d);
  }
  std::vector<double> queue_wait_ms, deliver_us;
  for (auto& [key, list] : by_hash) {
    auto& occ = (key.second == 0 ? seizure_at : af_at)[key.first];
    std::sort(occ.begin(), occ.end(), [](const Occurrence& a, const Occurrence& b) { return a.start < b.start; });
    std::sort(list.begin(), list.end(), [](const Delivered* a, const Delivered* b) { return a->arrived < b->arrived; });
    for (std::size_t k = 0; k < std::min(occ.size(), list.size()); ++k) {
      if (key.second == 0 && list[k]->pushed != 0)
        queue_wait_ms.push_back(1e-6 * static_cast<double>(occ[k].start - list[k]->pushed));
      deliver_us.push_back(1e-3 * static_cast<double>(list[k]->arrived - occ[k].end));
    }
  }

  // Closure: worker CPU per window position against the layers' self times.
  const double positions = static_cast<double>(traced.delivered) / static_cast<double>(W);
  const double samples_per_window = traced.ecg_s * in.config.fs_hz / positions;
  const double busy_us = 1e6 * worker_cpu_s / positions;
  struct Row {
    const char* layer;
    double us;
  };
  const double assembly_us = std::max(0.0, ex.us_per_window - 1e-3 * qrs.ns_per_sample * samples_per_window -
                                               (in.config.quality.enable ? 1e-3 * gate_ns * samples_per_window : 0.0) -
                                               ex.workload_us);
  const std::vector<Row> rows = {
      {"ecg.qrs (side pass)", 1e-3 * qrs.ns_per_sample * samples_per_window},
      {"ecg.gate (side pass)", in.config.quality.enable ? 1e-3 * gate_ns * samples_per_window : 0.0},
      {"rt.assembly (side pass)", assembly_us},
      {"features (live decorator)", 1e6 * (seizure_s + af_s) / positions},
      {"rt.classify (side pass)", classify_us},
      {"sink (live)", 1e6 * sink_s / positions},
  };
  double attributed = 0.0;
  std::ostringstream table;
  table << "self time per window position (" << workload.name() << ", seed " << options.seed
        << "; worker busy " << busy_us << " us):\n";
  for (const Row& row : rows) {
    attributed += row.us;
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-28s %10.3f us  %6.1f%%\n", row.layer, row.us,
                  busy_us > 0 ? 100.0 * row.us / busy_us : 0.0);
    table << buf;
  }
  const double unattributed = busy_us > 0 ? std::max(0.0, 1.0 - attributed / busy_us) : 0.0;
  {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-28s %10.3f us  %6.1f%%\n", "unattributed",
                  std::max(0.0, busy_us - attributed), 100.0 * unattributed);
    table << buf;
  }
  std::printf("%s", table.str().c_str());

  // Tracing overhead: throughput lost in a closed loop; CPU per window in the
  // open loop, whose throughput the schedule fixes.
  const auto wps = [](const RunStats& s) { return static_cast<double>(s.delivered) / s.wall_s; };
  const double overhead =
      workload.open_loop()
          ? (traced.cpu_s / static_cast<double>(traced.delivered)) / (untraced.cpu_s / static_cast<double>(untraced.delivered)) - 1.0
          : 1.0 - wps(traced) / wps(untraced);

  const std::string stem = options.out_dir + "/trace-" + workload.name() + "-" + std::to_string(options.seed);
  write_chrome_trace(tracer, stem + ".json", 200000);
  std::ofstream(stem + ".selftime.txt") << table.str() << "  trace.overhead_share " << overhead << "\n";
  std::printf("spans: %s.json; self-time table: %s.selftime.txt\n", stem.c_str(), stem.c_str());

  const double live_af_us = af_calls ? 1e6 * af_s / static_cast<double>(af_calls) : af_side_us;
  return {
      {"gen.lag_p99_ms", "ms", percentile(traced.gen_lag_ms, 0.99)},
      {"gen.x_realtime", "x", traced.ecg_s / traced.wall_s},
      {"rt.push_us_p50", "us", percentile(push_us, 0.50)},
      {"rt.push_us_p99", "us", percentile(push_us, 0.99)},
      {"rt.queue_wait_ms_p99", "ms", percentile(queue_wait_ms, 0.99)},
      {"rt.deliver_us_p99", "us", percentile(deliver_us, 0.99)},
      {"rt.batch_windows_mean", "windows", batch_positions},
      {"rt.dropped_chunks", "count", static_cast<double>(traced.dropped_chunks)},
      {"rt.rejected_windows", "count", static_cast<double>(traced.rejected_windows)},
      {"rt.admit_us_p99", "us", percentile(admit_us, 0.99)},
      {"rt.install_us_p99", "us", percentile(traced.install_us, 0.99)},
      {"ecg.qrs_ns_per_sample", "ns", qrs.ns_per_sample},
      {"ecg.lane_vector_fraction", "fraction", qrs.vector_fraction},
      {"ecg.gate_ns_per_sample", "ns", gate_ns},
      {"features.seizure_us_per_window", "us",
       seizure_calls ? 1e6 * seizure_s / static_cast<double>(seizure_calls) : ex.seizure_us},
      {"features.af_us_per_window", "us", live_af_us},
      {"features.cache_hit_rate", "fraction", traced.cache.hit_rate()},
      {"rt.extract_us_per_window", "us", ex.us_per_window},
      {"rt.assembly_self_us_per_window", "us", assembly_us},
      {"rt.classify_us_per_window", "us", classify_us},
      {"rt.model_load_ms", "ms", load_ms},
      {"net.send_us_per_chunk", "us", wire.send_us},
      {"net.bytes_in_per_window", "B", wire.bytes_in_per_window},
      {"net.bytes_out_per_window", "B", wire.bytes_out_per_window},
      {"net.decode_ns_per_byte", "ns", decode_ns},
      {"io.decode_mb_per_s", "MB/s", io_mb_per_s},
      {"core.tailor_ms", "ms", traced.tailor_ms > 0.0 ? traced.tailor_ms : core.tailor_ms},
      {"core.select_ms", "ms", core.select_ms},
      {"svm.train_ms", "ms", core.train_ms},
      {"core.sv_budget_ms", "ms", core.budget_ms},
      {"core.quantize_ms", "ms", core.quantize_ms},
      {"trace.worker_us_per_window", "us", busy_us},
      {"trace.unattributed_share", "fraction", unattributed},
      {"trace.overhead_share", "fraction", overhead},
  };
}

}  // namespace wb

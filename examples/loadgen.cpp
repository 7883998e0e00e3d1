// Load generator / reference runner for the network serving gateway.
//
// Simulates a ward of patients streaming single-lead ECG to a gateway:
// patients are split across --connections client connections, and every
// connection interleaves its patients chunk by chunk (the telemetry-gateway
// arrival pattern the replayer uses), ends each stream, then sends kBye and
// waits for the fenced kStats answer — at which point every decision owed
// to it has arrived.
//
//   ./loadgen --connect tcp:HOST:PORT|unix:/path [--patients N] [--duration S]
//             [--connections N] [--chunk S] [--speed X] [--seed S]
//             [--cohort DIR] [--emit FILE] [--direct]
//
// Patients are synthesized (ecg::synthesize_session, deterministic in
// --seed) or read from a WFDB --cohort directory (patient id = trailing
// record number, rt::CohortReplayer::patient_id_of; two records with the
// same id are refused). --speed 1 paces each connection at real time; 0
// (default) streams as fast as possible.
//
// --direct bypasses the network entirely: the same patients, chunking, and
// interleaving run through the in-process single-threaded StreamClassifier
// over the same deterministic model. Because the gateway adds no
// arithmetic, a loopback run and a --direct run must produce bit-identical
// decision streams — CI's serving-smoke job diffs the two --emit files.
//
// --emit writes the decision stream sorted by (patient, start time) in
// replay_cohort's 5-field format, so tests/golden/check_replay.py can diff
// any two runs.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ecg/ecg_synth.hpp"
#include "io/wfdb.hpp"
#include "net/client.hpp"
#include "rt/cohort_replayer.hpp"
#include "rt/stream_classifier.hpp"

namespace {

using namespace svt;

struct Patient {
  int id = 0;
  double fs_hz = 250.0;
  std::vector<double> samples_mv;
};

struct Options {
  std::string connect;
  std::string cohort_dir;
  std::string emit_path;
  std::size_t patients = 8;
  double duration_s = 60.0;
  std::size_t connections = 2;
  double chunk_s = 4.0;
  double speed = 0.0;
  std::uint64_t seed = 7000;
  bool direct = false;
};

std::vector<Patient> synth_patients(const Options& options) {
  std::vector<Patient> ward;
  for (std::size_t p = 1; p <= options.patients; ++p) {
    ecg::PatientProfile profile;
    ecg::SessionEvents events;
    ecg::SessionSignalParams sp;
    sp.duration_s = options.duration_s;
    std::mt19937_64 rng(options.seed + p);
    auto wf = ecg::synthesize_session(profile, events, sp, ecg::EcgSynthParams{}, rng);
    Patient patient;
    patient.id = static_cast<int>(p);
    patient.fs_hz = wf.fs_hz;
    patient.samples_mv = std::move(wf.samples_mv);
    ward.push_back(std::move(patient));
  }
  return ward;
}

std::vector<Patient> cohort_patients(const std::string& dir) {
  std::vector<Patient> ward;
  std::map<int, std::string> record_of;  // Patient id -> the record that claimed it.
  for (const auto& name : io::read_records_index(dir)) {
    Patient patient;
    try {
      patient.id = rt::CohortReplayer::patient_id_of(name);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "loadgen: %s\n", e.what());
      std::exit(1);
    }
    const auto [claimed, fresh] = record_of.emplace(patient.id, name);
    if (!fresh) {
      std::fprintf(stderr, "loadgen: records '%s' and '%s' share patient id %d\n",
                   claimed->second.c_str(), name.c_str(), patient.id);
      std::exit(1);
    }
    const auto record = io::read_record(dir, name);
    patient.fs_hz = record.header.fs_hz;
    patient.samples_mv = record.signal_mv(io::ecg_channel(record.header));
    ward.push_back(std::move(patient));
  }
  return ward;
}

/// Interleave `mine` chunk by chunk (one chunk per patient per round) into
/// `push`; calls `done` as each patient's stream runs out. Paces against
/// wall time when speed > 0.
template <typename PushFn, typename DoneFn>
void stream_interleaved(const std::vector<const Patient*>& mine, double chunk_s, double speed,
                        PushFn&& push, DoneFn&& done) {
  std::vector<std::size_t> offsets(mine.size(), 0);
  const auto t0 = std::chrono::steady_clock::now();
  bool any_left = !mine.empty();
  while (any_left) {
    any_left = false;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const Patient& p = *mine[i];
      if (offsets[i] >= p.samples_mv.size()) continue;
      const std::size_t chunk = std::max<std::size_t>(
          1, static_cast<std::size_t>(chunk_s * p.fs_hz));
      const std::size_t n = std::min(chunk, p.samples_mv.size() - offsets[i]);
      if (speed > 0.0) {
        const double stream_s = static_cast<double>(offsets[i] + n) / p.fs_hz;
        const auto due = t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                  std::chrono::duration<double>(stream_s / speed));
        std::this_thread::sleep_until(due);
      }
      push(p.id, std::span(p.samples_mv).subspan(offsets[i], n));
      offsets[i] += n;
      if (offsets[i] < p.samples_mv.size()) {
        any_left = true;
      } else {
        done(p.id);
      }
    }
  }
}

int emit(const std::string& path, std::vector<net::ReceivedDecision> decisions) {
  std::sort(decisions.begin(), decisions.end(), [](const auto& a, const auto& b) {
    return a.patient_id != b.patient_id ? a.patient_id < b.patient_id : a.start_s < b.start_s;
  });
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "# loadgen decision stream: patient start_s label decision beats\n");
  for (const auto& d : decisions)
    std::fprintf(out, "%d %.2f %d %.6f %zu\n", d.patient_id, d.start_s, d.label,
                 d.decision_value, static_cast<std::size_t>(d.num_beats));
  std::fclose(out);
  std::printf("wrote %zu decision lines to %s\n", decisions.size(), path.c_str());
  return 0;
}

int run_direct(const Options& options, const std::vector<Patient>& ward) {
  rt::StreamConfig config;
  config.fs_hz = ward.empty() ? 250.0 : ward.front().fs_hz;
  config.window_s = 20.0;
  config.stride_s = 10.0;
  rt::StreamClassifier engine(rt::synthetic_full_feature_model(), config);
  std::vector<const Patient*> all;
  for (const auto& p : ward) all.push_back(&p);
  stream_interleaved(
      all, options.chunk_s, options.speed,
      [&](int pid, std::span<const double> chunk) { engine.push_samples(pid, chunk); },
      [&](int pid) { engine.end_stream(pid); });
  const auto results = engine.flush();
  std::printf("direct: %zu patients, %zu windows classified in-process\n", ward.size(),
              results.size());
  if (options.emit_path.empty()) return 0;
  std::vector<net::ReceivedDecision> decisions;
  for (const auto& r : results) {
    net::ReceivedDecision d;
    d.patient_id = r.patient_id;
    d.start_s = r.start_s;
    d.decision_value = r.decision_value;
    d.label = r.label;
    d.num_beats = static_cast<std::uint32_t>(r.num_beats);
    decisions.push_back(d);
  }
  return emit(options.emit_path, std::move(decisions));
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const char* value = a + 1 < argc ? argv[a + 1] : nullptr;
    if (arg == "--connect" && value) {
      options.connect = value;
      ++a;
    } else if (arg == "--patients" && value) {
      options.patients = static_cast<std::size_t>(std::strtoul(value, nullptr, 10));
      ++a;
    } else if (arg == "--duration" && value) {
      options.duration_s = std::strtod(value, nullptr);
      ++a;
    } else if (arg == "--connections" && value) {
      options.connections = static_cast<std::size_t>(std::strtoul(value, nullptr, 10));
      ++a;
    } else if (arg == "--chunk" && value) {
      options.chunk_s = std::strtod(value, nullptr);
      ++a;
    } else if (arg == "--speed" && value) {
      options.speed = std::strtod(value, nullptr);
      ++a;
    } else if (arg == "--seed" && value) {
      options.seed = std::strtoull(value, nullptr, 10);
      ++a;
    } else if (arg == "--cohort" && value) {
      options.cohort_dir = value;
      ++a;
    } else if (arg == "--emit" && value) {
      options.emit_path = value;
      ++a;
    } else if (arg == "--direct") {
      options.direct = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --connect tcp:HOST:PORT|unix:/path [--patients N]"
                   " [--duration S] [--connections N] [--chunk S] [--speed X] [--seed S]"
                   " [--cohort DIR] [--emit FILE] [--direct]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!options.direct && options.connect.empty()) {
    std::fprintf(stderr, "loadgen: need --connect (or --direct)\n");
    return 2;
  }

  const std::vector<Patient> ward =
      options.cohort_dir.empty() ? synth_patients(options) : cohort_patients(options.cohort_dir);
  std::size_t total_samples = 0;
  for (const auto& p : ward) total_samples += p.samples_mv.size();
  std::printf("ward: %zu patients, %zu samples total (%s)\n", ward.size(), total_samples,
              options.cohort_dir.empty() ? "synthetic" : options.cohort_dir.c_str());

  if (options.direct) return run_direct(options, ward);

  const net::Endpoint endpoint = net::Endpoint::parse(options.connect);
  const std::size_t connections = std::max<std::size_t>(
      1, std::min(options.connections, std::max<std::size_t>(ward.size(), 1)));

  // Patients round-robin across connections; one driver thread each.
  std::vector<std::vector<const Patient*>> assignment(connections);
  for (std::size_t i = 0; i < ward.size(); ++i)
    assignment[i % connections].push_back(&ward[i]);

  std::mutex mutex;
  std::vector<net::ReceivedDecision> decisions;
  std::vector<std::string> failures;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  for (std::size_t c = 0; c < connections; ++c) {
    drivers.emplace_back([&, c] {
      const auto fail = [&](const std::string& what) {
        const std::lock_guard<std::mutex> lock(mutex);
        failures.push_back("connection " + std::to_string(c) + ": " + what);
      };
      try {
        net::GatewayClient client(endpoint);
        const auto ack = client.hello_ack();
        if (!ack) {
          const auto error = client.error();
          fail(error ? std::string(net::error_code_name(error->code)) + ": " + error->message
                     : "disconnected during handshake");
          return;
        }
        for (const Patient* p : assignment[c]) client.open_stream(p->id, p->fs_hz);
        bool ok = true;
        stream_interleaved(
            assignment[c], options.chunk_s, options.speed,
            [&](int pid, std::span<const double> chunk) {
              ok = client.send_samples(pid, chunk) && ok;
            },
            [&](int pid) { ok = client.end_stream(pid) && ok; });
        const auto stats = ok ? client.finish() : std::nullopt;
        if (!stats) {
          const auto error = client.error();
          fail(error ? std::string(net::error_code_name(error->code)) + ": " + error->message
                     : "disconnected before the stats answer");
          return;
        }
        auto received = client.decisions();
        const std::lock_guard<std::mutex> lock(mutex);
        decisions.insert(decisions.end(), received.begin(), received.end());
      } catch (const std::exception& e) {
        fail(e.what());
      }
    });
  }
  for (auto& t : drivers) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  for (const auto& f : failures) std::fprintf(stderr, "loadgen: %s\n", f.c_str());
  if (!failures.empty()) return 1;

  std::printf("streamed %zu patients over %zu connection%s to %s in %.2f s"
              " (%.2f Msamples/s), %zu decisions back\n",
              ward.size(), connections, connections == 1 ? "" : "s",
              endpoint.to_string().c_str(), wall_s,
              static_cast<double>(total_samples) / wall_s / 1e6, decisions.size());
  if (!options.emit_path.empty()) return emit(options.emit_path, std::move(decisions));
  return 0;
}

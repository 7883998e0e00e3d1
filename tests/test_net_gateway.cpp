// Serving gateway: a loopback round trip (client -> TCP/UDS socket ->
// gateway -> sharded engine -> socket -> client) must be bit-identical to
// pushing the same samples through the in-process StreamClassifier, at any
// worker count, on both transports. Malformed or protocol-violating input
// must poison only its own connection — answered with a typed kError frame,
// patients' shard state released — while the gateway keeps serving
// everybody else. A client that stops reading must throttle its shard and
// lose no decision.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ecg/ecg_synth.hpp"
#include "net/client.hpp"
#include "net/gateway.hpp"
#include "rt/cohort_replayer.hpp"
#include "rt/stream_classifier.hpp"

namespace svt {
namespace {

rt::StreamConfig ward_config() {
  rt::StreamConfig config;
  config.fs_hz = 250.0;
  config.window_s = 20.0;
  config.stride_s = 10.0;
  return config;
}

std::map<int, std::vector<double>> synth_ward(std::size_t patients, double duration_s = 45.0) {
  std::map<int, std::vector<double>> ward;
  for (std::size_t p = 1; p <= patients; ++p) {
    ecg::PatientProfile profile;
    ecg::SessionEvents events;
    ecg::SessionSignalParams sp;
    sp.duration_s = duration_s;
    std::mt19937_64 rng(4200 + p);
    ward[static_cast<int>(p)] =
        ecg::synthesize_session(profile, events, sp, ecg::EcgSynthParams{}, rng).samples_mv;
  }
  return ward;
}

/// Reference: the same ward through the in-process single-threaded engine
/// serving the identical deterministic model.
std::map<int, std::vector<rt::WindowResult>> direct_results(
    const std::map<int, std::vector<double>>& ward,
    const rt::StreamConfig& config = ward_config()) {
  rt::StreamClassifier reference(rt::synthetic_full_feature_model(), config);
  for (const auto& [pid, samples] : ward) {
    reference.push_samples(pid, samples);
    reference.end_stream(pid);
  }
  std::map<int, std::vector<rt::WindowResult>> split;
  for (const auto& r : reference.flush()) split[r.patient_id].push_back(r);
  return split;
}

rt::EngineOptions engine_options(std::size_t workers) {
  rt::EngineOptions options;
  options.num_workers = workers;
  return options;
}

std::unique_ptr<net::ServeGateway> make_gateway(std::size_t workers) {
  auto registry = std::make_shared<rt::ModelRegistry>(rt::synthetic_full_feature_model());
  return std::make_unique<net::ServeGateway>(std::move(registry), ward_config(),
                                             engine_options(workers));
}

std::string unique_uds_path(const std::string& tag) {
  return "/tmp/svt_gw_" + tag + "_" + std::to_string(::getpid()) + ".sock";
}

/// Stream the ward through one client connection (chunked, interleaved),
/// finish, and split the received decisions per patient.
std::map<int, std::vector<net::ReceivedDecision>> round_trip(
    const net::Endpoint& endpoint, const std::map<int, std::vector<double>>& ward,
    std::size_t chunk = 1000) {
  net::GatewayClient client(endpoint);
  const auto ack = client.hello_ack();
  EXPECT_TRUE(ack.has_value());
  if (ack) EXPECT_EQ(ack->fs_hz, 250.0);
  for (const auto& [pid, samples] : ward) EXPECT_TRUE(client.open_stream(pid, 250.0));
  bool any_left = !ward.empty();
  std::map<int, std::size_t> offsets;
  while (any_left) {
    any_left = false;
    for (const auto& [pid, samples] : ward) {
      auto& off = offsets[pid];
      if (off >= samples.size()) continue;
      const std::size_t n = std::min(chunk, samples.size() - off);
      EXPECT_TRUE(client.send_samples(pid, std::span(samples).subspan(off, n)));
      off += n;
      if (off < samples.size()) {
        any_left = true;
      } else {
        EXPECT_TRUE(client.end_stream(pid));
      }
    }
  }
  const auto stats = client.finish();
  EXPECT_TRUE(stats.has_value());
  std::map<int, std::vector<net::ReceivedDecision>> split;
  for (const auto& d : client.decisions()) split[d.patient_id].push_back(d);
  return split;
}

void expect_bit_identical(const std::map<int, std::vector<net::ReceivedDecision>>& got,
                          const std::map<int, std::vector<rt::WindowResult>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [pid, expected] : want) {
    const auto it = got.find(pid);
    ASSERT_NE(it, got.end()) << "patient " << pid << " missing from the round trip";
    ASSERT_EQ(it->second.size(), expected.size()) << "patient " << pid;
    for (std::size_t w = 0; w < expected.size(); ++w) {
      // EXPECT_EQ on doubles: bit-for-bit, no tolerance.
      EXPECT_EQ(it->second[w].start_s, expected[w].start_s) << "patient " << pid;
      EXPECT_EQ(it->second[w].decision_value, expected[w].decision_value) << "patient " << pid;
      EXPECT_EQ(it->second[w].label, expected[w].label) << "patient " << pid;
      EXPECT_EQ(it->second[w].num_beats, expected[w].num_beats) << "patient " << pid;
    }
  }
}

TEST(NetGateway, TcpRoundTripBitIdenticalUnder124Workers) {
  const auto ward = synth_ward(5);
  const auto want = direct_results(ward);
  ASSERT_FALSE(want.empty());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    auto gateway = make_gateway(workers);
    const auto bound = gateway->add_listener(net::Endpoint::tcp("127.0.0.1", 0));
    gateway->start();
    expect_bit_identical(round_trip(bound, ward), want);
    gateway->stop();
    EXPECT_EQ(gateway->stats().protocol_errors, 0u);
    EXPECT_EQ(gateway->stats().orphan_batches, 0u);
  }
}

TEST(NetGateway, UdsRoundTripBitIdentical) {
  const auto ward = synth_ward(4);
  const auto want = direct_results(ward);
  auto gateway = make_gateway(2);
  const auto path = unique_uds_path("uds");
  const auto bound = gateway->add_listener(net::Endpoint::unix_path(path));
  gateway->start();
  expect_bit_identical(round_trip(bound, ward), want);
  gateway->stop();
}

TEST(NetGateway, ChunkingInvarianceOverTheWire) {
  // Re-framing on the wire must not change results: tiny chunks (many
  // frames, exercising partial reads) match the big-chunk reference.
  const auto ward = synth_ward(2, 30.0);
  const auto want = direct_results(ward);
  auto gateway = make_gateway(2);
  const auto bound = gateway->add_listener(net::Endpoint::tcp("127.0.0.1", 0));
  gateway->start();
  expect_bit_identical(round_trip(bound, ward, /*chunk=*/37), want);
  gateway->stop();
}

TEST(NetGateway, TwoConcurrentConnectionsSplitTheWard) {
  const auto ward = synth_ward(4);
  const auto want = direct_results(ward);
  auto gateway = make_gateway(2);
  const auto bound = gateway->add_listener(net::Endpoint::tcp("127.0.0.1", 0));
  gateway->start();
  std::map<int, std::vector<double>> half1, half2;
  for (const auto& [pid, samples] : ward) (pid % 2 == 0 ? half1 : half2)[pid] = samples;
  std::map<int, std::vector<net::ReceivedDecision>> merged;
  std::thread t1([&] {
    auto got = round_trip(bound, half1);
    static std::mutex m;
    const std::lock_guard<std::mutex> lock(m);
    merged.merge(got);
  });
  auto got2 = round_trip(bound, half2);
  t1.join();
  merged.merge(got2);
  expect_bit_identical(merged, want);
  gateway->stop();
}

TEST(NetGateway, GarbageBytesGetTypedErrorAndOthersKeepServing) {
  const auto ward = synth_ward(2, 30.0);
  const auto want = direct_results(ward);
  auto gateway = make_gateway(2);
  const auto bound = gateway->add_listener(net::Endpoint::tcp("127.0.0.1", 0));
  gateway->start();

  {
    // A raw connection spewing garbage must be answered with a typed kError
    // frame and closed — not crash the server.
    net::Socket raw = net::connect_to(bound);
    const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02, 0x03,
                                               0x04, 0x05, 0x06, 0x07, 0x08};
    ASSERT_TRUE(raw.send_all(garbage));
    // Read the server's answer until EOF and decode it.
    std::vector<std::uint8_t> reply(4096);
    net::FrameDecoder decoder;
    while (true) {
      const auto n = raw.recv_some(reply);
      if (n <= 0) break;
      decoder.feed(std::span<const std::uint8_t>(reply.data(), static_cast<std::size_t>(n)));
    }
    net::FrameDecoder::Frame frame;
    ASSERT_EQ(decoder.next(frame), net::FrameDecoder::Status::kFrame);
    ASSERT_EQ(frame.type, net::FrameType::kError);
    net::ErrorFrame error;
    ASSERT_TRUE(net::parse_error(frame.payload, error));
    EXPECT_EQ(error.code, net::ErrorCode::kBadMagic);
  }
  EXPECT_GE(gateway->stats().protocol_errors, 1u);

  // The gateway (and the engine) keep serving: a well-behaved connection
  // still gets bit-exact results.
  expect_bit_identical(round_trip(bound, ward), want);
  gateway->stop();
}

TEST(NetGateway, ProtocolViolationsAreTyped) {
  auto gateway = make_gateway(1);
  const auto bound = gateway->add_listener(net::Endpoint::tcp("127.0.0.1", 0));
  gateway->start();

  const auto expect_refusal = [&](net::ErrorCode want_code, const auto& drive) {
    net::GatewayClient client(bound);
    drive(client);
    const auto deadline_error = [&] {
      // finish() returns nullopt on a refusal; error() then carries it.
      EXPECT_FALSE(client.finish().has_value());
      const auto error = client.error();
      ASSERT_TRUE(error.has_value());
      EXPECT_EQ(error->code, want_code) << net::error_code_name(error->code);
    };
    deadline_error();
  };

  // Sample chunk for a patient that never opened a stream.
  expect_refusal(net::ErrorCode::kUnknownStream, [](net::GatewayClient& client) {
    ASSERT_TRUE(client.hello_ack().has_value());
    const std::vector<double> chunk(100, 0.0);
    client.send_samples(99, chunk);
    client.flush();
  });
  // Stream-open with the wrong sampling rate.
  expect_refusal(net::ErrorCode::kConfigMismatch, [](net::GatewayClient& client) {
    ASSERT_TRUE(client.hello_ack().has_value());
    client.open_stream(1, 360.0);
    client.flush();
  });
  // Ending a stream that is not open.
  expect_refusal(net::ErrorCode::kUnknownStream, [](net::GatewayClient& client) {
    ASSERT_TRUE(client.hello_ack().has_value());
    client.end_stream(7);
    client.flush();
  });

  gateway->stop();
  EXPECT_EQ(gateway->stats().streams_opened, 0u);
}

TEST(NetGateway, DuplicateStreamAcrossConnectionsRefused) {
  auto gateway = make_gateway(1);
  const auto bound = gateway->add_listener(net::Endpoint::tcp("127.0.0.1", 0));
  gateway->start();

  net::GatewayClient first(bound);
  ASSERT_TRUE(first.hello_ack().has_value());
  ASSERT_TRUE(first.open_stream(1, 250.0));
  ASSERT_TRUE(first.flush());
  // The claim exists once the gateway has read the open, not once it is
  // sent: wait (bounded) for it, or the second open could be read first.
  for (int i = 0; i < 10000 && gateway->stats().streams_opened < 1; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(gateway->stats().streams_opened, 1u);

  net::GatewayClient second(bound);
  ASSERT_TRUE(second.hello_ack().has_value());
  second.open_stream(1, 250.0);
  second.flush();
  EXPECT_FALSE(second.finish().has_value());
  const auto error = second.error();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, net::ErrorCode::kDuplicateStream);

  // The first connection's claim is intact: it can still stream and finish.
  const std::vector<double> chunk(1000, 0.0);
  EXPECT_TRUE(first.send_samples(1, chunk));
  EXPECT_TRUE(first.end_stream(1));
  EXPECT_TRUE(first.finish().has_value());
  gateway->stop();
}

TEST(NetGateway, DirtyDisconnectReleasesThePatient) {
  // A connection that dies mid-stream (no end_stream, no bye) must not leak
  // its patient: a new connection re-opening the same id gets a complete,
  // bit-exact fresh stream.
  const auto ward = synth_ward(1, 30.0);
  const auto want = direct_results(ward);
  auto gateway = make_gateway(2);
  const auto bound = gateway->add_listener(net::Endpoint::tcp("127.0.0.1", 0));
  gateway->start();

  {
    net::GatewayClient dying(bound);
    ASSERT_TRUE(dying.hello_ack().has_value());
    ASSERT_TRUE(dying.open_stream(1, 250.0));
    const auto& samples = ward.at(1);
    ASSERT_TRUE(dying.send_samples(1, std::span(samples).subspan(0, 4000)));
    ASSERT_TRUE(dying.flush());
    // Destructor: the socket dies with samples in flight and no bye.
  }
  // Wait until the gateway has reaped the dead connection (the patient's
  // route is released on the reader's exit path).
  gateway->wait_connections_closed(1);

  expect_bit_identical(round_trip(bound, ward), want);
  gateway->stop();
}

TEST(NetGateway, StatsAnswerAccountsForTheConversation) {
  const auto ward = synth_ward(3, 30.0);
  auto gateway = make_gateway(2);
  const auto bound = gateway->add_listener(net::Endpoint::tcp("127.0.0.1", 0));
  gateway->start();

  net::GatewayClient client(bound);
  ASSERT_TRUE(client.hello_ack().has_value());
  std::size_t total = 0;
  for (const auto& [pid, samples] : ward) {
    ASSERT_TRUE(client.open_stream(pid, 250.0));
    ASSERT_TRUE(client.send_samples(pid, samples));
    ASSERT_TRUE(client.end_stream(pid));
    total += samples.size();
  }
  const auto stats = client.finish();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->samples_ingested, total);
  EXPECT_EQ(stats->streams_opened, 3u);
  EXPECT_EQ(stats->streams_closed, 3u);
  EXPECT_EQ(stats->protocol_errors, 0u);
  EXPECT_GT(stats->windows_delivered, 0u);
  EXPECT_EQ(stats->windows_delivered, client.decisions().size());
  gateway->stop();
}

TEST(NetGateway, StalledReaderThrottlesWithoutLoss) {
  // A client that reads nothing while it streams: far more decision frames
  // than the socket buffers hold, from a one-worker gateway with a 4-chunk
  // shard queue. The worker blocks sending, its queue fills, the reader
  // blocks, and the client's own sends stall; once the client reads, every
  // decision arrives, bit-identical to the in-process engine, before the
  // stats answer.
  rt::StreamConfig config = ward_config();
  config.window_s = 4.0;
  config.stride_s = 1.0;
  rt::EngineOptions options = engine_options(1);
  options.queue_capacity = 4;
  auto registry = std::make_shared<rt::ModelRegistry>(rt::synthetic_full_feature_model());
  net::ServeGateway gateway(std::move(registry), config, options);
  const auto bound = gateway.add_listener(net::Endpoint::unix_path(unique_uds_path("stall")));
  gateway.start();

  const auto ward = synth_ward(8, 1200.0);
  std::vector<std::uint8_t> out;
  net::append_hello(out, net::HelloFrame{});
  for (const auto& [pid, samples] : ward)
    net::append_stream_open(out, net::StreamOpenFrame{pid, 250.0});
  for (std::size_t off = 0; off < ward.begin()->second.size(); off += 1000) {
    for (const auto& [pid, samples] : ward) {
      if (off >= samples.size()) continue;
      const std::size_t n = std::min<std::size_t>(1000, samples.size() - off);
      net::append_sample_chunk(out, pid, std::span(samples).subspan(off, n));
    }
  }
  for (const auto& [pid, samples] : ward) net::append_end_stream(out, net::EndStreamFrame{pid});
  net::append_bye(out);

  net::Socket socket = net::connect_to(bound);
  std::atomic<bool> sent{false};
  std::thread sender([&] {
    EXPECT_TRUE(socket.send_all(out));
    sent = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(sent.load()) << "the stalled reader never throttled the client";

  net::FrameDecoder decoder;
  std::vector<std::uint8_t> buffer(64 * 1024);
  while (true) {  // Everything the gateway sends, up to its FIN.
    const auto n = socket.recv_some(buffer);
    if (n <= 0) break;
    decoder.feed(std::span<const std::uint8_t>(buffer.data(), static_cast<std::size_t>(n)));
  }
  sender.join();
  std::map<int, std::vector<net::ReceivedDecision>> got;
  bool stats_answered = false;
  net::FrameDecoder::Frame frame;
  while (decoder.next(frame) == net::FrameDecoder::Status::kFrame) {
    net::DecisionBatchView batch;
    if (frame.type == net::FrameType::kDecision && net::parse_decisions(frame.payload, batch)) {
      EXPECT_FALSE(stats_answered) << "decision after the stats answer";
      for (std::size_t i = 0; i < batch.num_decisions; ++i) {
        const net::DecisionRecord r = batch.record(i);
        net::ReceivedDecision d;
        d.patient_id = batch.patient_id;
        d.start_s = r.start_s;
        d.decision_value = r.decision_value;
        d.label = r.label;
        d.num_beats = r.num_beats;
        got[d.patient_id].push_back(d);
      }
    }
    stats_answered = stats_answered || frame.type == net::FrameType::kStats;
  }
  EXPECT_TRUE(stats_answered);
  expect_bit_identical(got, direct_results(ward, config));

  gateway.wait_connections_closed(1);
  const auto stats = gateway.stats();
  EXPECT_EQ(stats.decision_windows_sent, gateway.engine().stats().delivered_windows);
  EXPECT_EQ(stats.orphan_batches, 0u);
  gateway.stop();
}

}  // namespace
}  // namespace svt

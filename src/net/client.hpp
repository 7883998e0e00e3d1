// Client side of the gateway protocol.
//
// A GatewayClient owns one connection: the caller's thread sends (hello,
// stream-open, sample chunks, end-stream, bye) while an internal receiver
// thread decodes the server's frames as they arrive — decisions are
// collected continuously, so a client that streams for hours never lets the
// kernel receive buffer fill (which would block the gateway's shard worker
// in its send of a decision frame and, through the shard queue, the
// gateway's reader of this very connection: both sides blocked in send is
// the classic stream-protocol deadlock; the receiver thread is what rules
// it out).
//
// Sends are batched through a reusable buffer and flushed explicitly (or
// automatically once kFlushBytes accumulate): many small frames become one
// send() syscall.
//
// finish() ends the conversation: it sends kBye, flushes, and blocks until
// the server's kStats answer (which the gateway sends only after fencing
// the engine — so once finish() returns, every decision for every sample
// this client pushed has been received). A typed kError refusal from the
// server is surfaced by error() and makes the in-flight call return false.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace svt::net {

/// One decision received from the gateway (a DecisionRecord plus its
/// patient, flattened for easy sorting/diffing against in-process results).
struct ReceivedDecision {
  std::int32_t patient_id = 0;
  double start_s = 0.0;
  double decision_value = 0.0;
  std::int32_t label = 0;
  std::uint32_t num_beats = 0;
  std::uint32_t workload = 0;  ///< Index into the hello-ack workload list.
  std::uint32_t quality = 0;   ///< ecg::quality_flags bitmask (0 = clean).
};

class GatewayClient {
 public:
  /// Connect and send the hello. Throws std::runtime_error if the endpoint
  /// is unreachable. The handshake completes asynchronously; hello_ack()
  /// waits for it.
  explicit GatewayClient(const Endpoint& endpoint);
  ~GatewayClient();
  GatewayClient(const GatewayClient&) = delete;
  GatewayClient& operator=(const GatewayClient&) = delete;

  /// Block until the server's hello-ack (its stream config) or a refusal /
  /// disconnect (nullopt; see error()).
  std::optional<HelloAckFrame> hello_ack();

  /// The following queue one frame into the send buffer (flushed once
  /// kFlushBytes accumulate) and return false if the connection has failed.
  bool open_stream(std::int32_t patient_id, double fs_hz);
  bool send_samples(std::int32_t patient_id, std::span<const double> samples_mv);
  bool end_stream(std::int32_t patient_id);

  /// Send everything buffered now (one explicit send call).
  bool flush();

  /// Send kBye and block until the server's kStats answer — i.e. until
  /// every decision owed to this client has arrived — or a refusal /
  /// disconnect (nullopt).
  std::optional<StatsFrame> finish();

  /// Decisions received so far (all of them, in arrival order). After a
  /// successful finish() this is the complete stream.
  std::vector<ReceivedDecision> decisions() const;

  /// The server's typed refusal, if one arrived.
  std::optional<ErrorFrame> error() const;

 private:
  /// Send-buffer size that triggers an automatic flush.
  static constexpr std::size_t kFlushBytes = 64 * 1024;

  void receive_loop();
  bool append_and_maybe_flush();

  Socket socket_;
  std::vector<std::uint8_t> sendbuf_;
  bool send_failed_ = false;
  std::thread receiver_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<HelloAckFrame> ack_;
  std::optional<StatsFrame> stats_;
  std::optional<ErrorFrame> error_;
  bool closed_ = false;  ///< Receiver saw EOF or a socket error.
  std::vector<ReceivedDecision> decisions_;
};

}  // namespace svt::net

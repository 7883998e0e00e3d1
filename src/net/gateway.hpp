// Network serving gateway: many concurrent patient streams over TCP/UDS.
//
//   client                     gateway                          engine
//   ──────                     ───────                          ──────
//   hello ───────────────────> reader thread (per connection)
//   stream_open(p) ──────────>   route p -> connection
//   sample_chunk(p, mV) ─────>   decode into reused buffers ──> push_samples
//        (TCP backpressure <──   blocks when p's shard      (one bounded
//         throttles the           queue is full)             rt::WorkQueue
//         sender)                                            per shard)
//                                                               │ shard worker
//   decision(p, windows) <──── routing sink: encode, then one <─┘ ResultSink
//        (a slow reader         send under the connection's      (one patient
//         throttles the         send mutex, on the worker        per batch,
//         patient's shard)      that classified the batch        time-ordered)
//   end_stream(p) ───────────>   engine.end_stream(p)
//   bye ─────────────────────>   fence; stats ──> client; close
//
// Ingest is allocation-free per sample: each connection's reader owns a
// reused receive buffer, frame decoder, and sample scratch vector, so a
// sample travels recv -> decode -> shard queue with no per-sample heap
// traffic (the engine's per-chunk task copy is the only allocation, as in
// the in-process path). Backpressure composes end to end: a full shard
// queue blocks the reader, the un-recv'd bytes fill the kernel socket
// buffer, and TCP flow control throttles the remote writer — the shard
// queue's semantics stretched over the wire.
//
// Decisions travel the reverse path with no queue of their own: the
// engine's ResultSink (installed by the gateway) routes each classified
// batch to the connection that opened the patient's stream, encodes it
// into a per-worker buffer, and sends it from the shard worker itself. The
// kernel socket buffer is the only decision buffer, so a client that stops
// reading blocks the worker in send and, through the shard queue, its own
// ingest — lossless, like ingest. A connection therefore costs one thread,
// its reader. Every frame on a connection (hello-ack, decisions, stats, a
// typed error) goes out whole under the connection's send mutex; the first
// failed send marks the connection closed and shuts its socket down, which
// wakes the reader, and later decision batches for it count as orphans.
//
// Bit-exactness: the gateway adds no arithmetic. Samples cross the wire as
// exact IEEE-754 bit patterns, chunk re-framing cannot change results (the
// engine is chunking-invariant), and per-patient decision order is
// preserved (a patient's id hashes to one shard, whose worker sends its
// batches in order), so a loopback round trip is bit-identical to pushing
// the same samples through the in-process engine at any worker count
// (tests/test_net_gateway.cpp, the serving-smoke CI job).
//
// Robustness: a malformed frame (bad magic/version/length/CRC, bad
// payload) or a protocol violation poisons only its own connection — the
// reader answers with a typed kError frame, tears the connection down, and
// evicts its patients' shard state so nothing leaks; other connections and
// the engine keep serving.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "rt/sharded_classifier.hpp"

namespace svt::net {

struct GatewayStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t streams_opened = 0;
  std::uint64_t streams_closed = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t samples_ingested = 0;
  /// Decision frames (and their windows) handed whole to the kernel.
  std::uint64_t decision_batches_sent = 0;
  std::uint64_t decision_windows_sent = 0;
  std::uint64_t protocol_errors = 0;
  /// Sink batches whose patient had no live connection (evicted mid-flight,
  /// pushed in-process, or its connection closed or failed a send):
  /// counted, not delivered.
  std::uint64_t orphan_batches = 0;
};

class ServeGateway {
 public:
  /// Serve `registry` through an embedded ShardedStreamClassifier
  /// configured by `options` (workers, queue capacity), whose sink the
  /// gateway replaces with its own routing sink. Throws
  /// std::invalid_argument on anything the engine rejects.
  ServeGateway(std::shared_ptr<rt::ModelRegistry> registry, rt::StreamConfig config = {},
               rt::EngineOptions options = {});
  ~ServeGateway();
  ServeGateway(const ServeGateway&) = delete;
  ServeGateway& operator=(const ServeGateway&) = delete;

  /// Bind a listener (call any number of times before start; typically one
  /// TCP and/or one UDS). Returns the bound endpoint with an ephemeral TCP
  /// port resolved. Throws std::runtime_error on bind failure.
  Endpoint add_listener(const Endpoint& endpoint);

  /// Spawn the accept loops. Throws std::logic_error without a listener.
  void start();

  /// Stop accepting, shut every live connection's socket down (waking its
  /// reader in recv and any worker blocked sending to it; their patients'
  /// shard state is evicted), and join all gateway threads. The engine
  /// itself stays alive until destruction. Idempotent.
  void stop();

  /// Block until `n` connections have been accepted AND closed since
  /// construction (the CI smoke uses this to exit after the load generator
  /// disconnects).
  void wait_connections_closed(std::size_t n);

  GatewayStats stats() const;

  rt::ShardedStreamClassifier& engine() { return engine_; }
  const rt::ShardedStreamClassifier& engine() const { return engine_; }
  const rt::StreamConfig& config() const { return engine_.config(); }

 private:
  struct Connection {
    Connection(Socket sock, std::uint64_t conn_id) : socket(std::move(sock)), id(conn_id) {}
    /// Closed by the exiting reader under send_mutex (unless stop() has
    /// taken the connection, which then shuts it down and joins the reader).
    Socket socket;
    const std::uint64_t id;  ///< Key in connections_.
    /// Held for one whole frame's send_all, so frames from the reader and
    /// from any number of shard workers never interleave on the wire.
    std::mutex send_mutex;
    bool closed = false;  ///< No more frames may be sent (guarded by send_mutex).
    std::thread reader;   ///< Set and taken under conn_mutex_.
  };

  void accept_loop(Listener& listener);
  void reader_loop(const std::shared_ptr<Connection>& conn);
  /// Send one encoded frame on `conn`; `last` closes the connection to
  /// every later frame (after a stats answer or a typed error). Returns
  /// false, sending nothing, once the connection is closed; the first
  /// failed send closes it and shuts its socket down, which wakes its
  /// reader.
  bool send_frame(Connection& conn, std::span<const std::uint8_t> bytes, bool last = false);
  /// Answer a protocol error with a typed frame, the connection's last.
  void fail_connection(Connection& conn, ErrorCode code, std::string message);
  /// Deregister `conn`'s patients; evict shard state for streams never
  /// ended cleanly (`open` = pid -> still-streaming flag from the reader).
  void release_patients(const std::shared_ptr<Connection>& conn,
                        const std::map<int, bool>& streams);
  void deliver(std::span<const rt::WindowResult> batch);
  StatsFrame snapshot_stats_frame();
  /// Join the readers that deregistered themselves (takes conn_mutex_ to
  /// collect them, joins outside it).
  void join_finished();

  std::vector<std::unique_ptr<Listener>> listeners_;
  std::vector<std::thread> accept_threads_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  mutable std::mutex conn_mutex_;
  std::condition_variable conn_cv_;  ///< Signalled when a connection closes.
  std::map<std::uint64_t, std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> finished_;  ///< Exited readers, not yet joined.
  std::uint64_t next_conn_id_ = 1;

  mutable std::mutex routes_mutex_;
  std::map<int, std::shared_ptr<Connection>> routes_;  ///< patient -> connection.

  std::mutex fence_mutex_;  ///< flush() is not reentrant; serialise fences.

  // Counters (atomic so readers and sink threads update freely).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_closed_{0};
  std::atomic<std::uint64_t> streams_opened_{0};
  std::atomic<std::uint64_t> streams_closed_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> samples_ingested_{0};
  std::atomic<std::uint64_t> decision_batches_sent_{0};
  std::atomic<std::uint64_t> decision_windows_sent_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> orphan_batches_{0};

  /// Last: constructed after, and destroyed before, everything deliver()
  /// reads, so its workers start only once the routes and counters exist
  /// and drain their last queued chunks into deliver() while they still do.
  rt::ShardedStreamClassifier engine_;
};

}  // namespace svt::net

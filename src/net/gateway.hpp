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
//   decision(p, windows) <──── writer thread (per connection) <─┘ ResultSink
//        (batched sends:        bounded send queue; frames        (one patient
//         coalesce + one        coalesced up to flush_bytes,      per batch,
//         explicit flush)       then one explicit send)           time-ordered)
//   end_stream(p) ───────────>   engine.end_stream(p)
//   bye ─────────────────────>   fence; stats ──> client; close
//
// Ingest is allocation-free per sample: each connection's reader owns a
// reused receive buffer, frame decoder, and sample scratch vector, so a
// sample travels recv -> decode -> shard queue with no per-sample heap
// traffic (the engine's per-chunk task copy is the only allocation, as in
// the in-process path). Backpressure composes end to end: a full shard
// queue blocks the reader (EngineOptions::backpressure = kBlock), the
// un-recv'd bytes fill the kernel socket buffer, and TCP flow control
// throttles the remote writer — the shard queue's semantics stretched over
// the wire.
//
// Decisions travel the reverse path: the engine's ResultSink (installed by
// the gateway) routes each classified batch to the connection that opened
// the patient's stream and enqueues the encoded frame on that connection's
// bounded send WorkQueue — kBlock mirrors ingest losslessly (a slow client
// eventually throttles its own shard), kDropOldest sheds stale decisions
// for live monitoring (each evicted frame is freed at once and its windows
// counted as dropped). The writer thread drains the queue, coalescing
// everything immediately available into one buffer (up to flush_bytes)
// before a single explicit send — the chained-buffer/flush idiom of
// Galois' buffered transport.
//
// Bit-exactness: the gateway adds no arithmetic. Samples cross the wire as
// exact IEEE-754 bit patterns, chunk re-framing cannot change results (the
// engine is chunking-invariant), and per-patient decision order is
// preserved (a patient's id hashes to one shard, and its connection has one
// send queue), so a loopback round trip is bit-identical to pushing the
// same samples through the in-process engine at any worker count
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

struct GatewayOptions {
  /// Configuration for the embedded engine: workers and shard-queue
  /// sizing/backpressure (rt::EngineOptions). The sink field is ignored —
  /// the gateway installs its own routing sink.
  rt::EngineOptions engine;
  /// Encoded decision batches queued per connection before the sink applies
  /// backpressure; must be > 0 (the gateway throws std::invalid_argument at
  /// construction on 0).
  std::size_t send_queue_capacity = 1024;
  rt::BackpressurePolicy send_backpressure = rt::BackpressurePolicy::kBlock;
  /// Writer coalescing bound: queued frames are batched into one buffer up
  /// to this many bytes, then flushed with a single send.
  std::size_t flush_bytes = 64 * 1024;
};

struct GatewayStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t streams_opened = 0;
  std::uint64_t streams_closed = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t samples_ingested = 0;
  /// Decision frames (and their windows) handed to the kernel by a
  /// connection's writer. Frames evicted before sending never count.
  std::uint64_t decision_batches_sent = 0;
  std::uint64_t decision_windows_sent = 0;
  /// Windows in decision frames evicted from a full send queue under
  /// send_backpressure = kDropOldest.
  std::uint64_t decision_windows_dropped = 0;
  std::uint64_t protocol_errors = 0;
  /// Sink batches whose patient had no live connection (evicted mid-flight
  /// or pushed in-process): counted, not delivered.
  std::uint64_t orphan_batches = 0;
};

class ServeGateway {
 public:
  /// Serve `registry` through an embedded ShardedStreamClassifier whose
  /// ResultSink is the gateway's own routing sink. Throws
  /// std::invalid_argument on anything the engine rejects or on
  /// send_queue_capacity == 0.
  ServeGateway(std::shared_ptr<rt::ModelRegistry> registry, rt::StreamConfig config = {},
               GatewayOptions options = {});
  ~ServeGateway();
  ServeGateway(const ServeGateway&) = delete;
  ServeGateway& operator=(const ServeGateway&) = delete;

  /// Bind a listener (call any number of times before start; typically one
  /// TCP and/or one UDS). Returns the bound endpoint with an ephemeral TCP
  /// port resolved. Throws std::runtime_error on bind failure.
  Endpoint add_listener(const Endpoint& endpoint);

  /// Spawn the accept loops. Throws std::logic_error without a listener.
  void start();

  /// Stop accepting, tear down every live connection (their patients'
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
  struct OutItem {
    std::vector<std::uint8_t> bytes;
    std::size_t windows = 0;  ///< Decision records in `bytes` (0: not a decision frame).
  };

  struct Connection {
    explicit Connection(Socket sock, const GatewayOptions& options)
        : socket(std::move(sock)),
          send_queue(options.send_queue_capacity, options.send_backpressure) {}
    Socket socket;
    rt::WorkQueue<OutItem> send_queue;
    std::thread reader;
    std::thread writer;
    std::atomic<int> finished_halves{0};  ///< Reader + writer completions.
    std::atomic<bool> done{false};        ///< Both halves finished; joinable.
  };

  void accept_loop(Listener& listener);
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void writer_loop(const std::shared_ptr<Connection>& conn);
  /// Called by each of reader/writer as it exits; the second call marks the
  /// connection closed (so wait_connections_closed cannot return while the
  /// writer still owes the peer its final frames).
  void finish_half(const std::shared_ptr<Connection>& conn);
  /// Answer a protocol error with a typed frame and poison the connection.
  void fail_connection(const std::shared_ptr<Connection>& conn, ErrorCode code,
                       std::string message);
  /// Deregister `conn`'s patients; evict shard state for streams never
  /// ended cleanly (`open` = pid -> still-streaming flag from the reader).
  void release_patients(const std::shared_ptr<Connection>& conn,
                        const std::map<int, bool>& streams);
  void deliver(std::span<const rt::WindowResult> batch);
  StatsFrame snapshot_stats_frame();
  void reap_finished_locked();  ///< Joins finished connections (conn_mutex_ held).

  GatewayOptions options_;
  rt::ShardedStreamClassifier engine_;

  std::vector<std::unique_ptr<Listener>> listeners_;
  std::vector<std::thread> accept_threads_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  mutable std::mutex conn_mutex_;
  std::condition_variable conn_cv_;  ///< Signalled when a connection closes.
  std::map<std::uint64_t, std::shared_ptr<Connection>> connections_;
  std::uint64_t next_conn_id_ = 1;

  mutable std::mutex routes_mutex_;
  std::map<int, std::shared_ptr<Connection>> routes_;  ///< patient -> connection.

  std::mutex fence_mutex_;  ///< flush() is not reentrant; serialise fences.

  // Counters (atomic so readers, writers, and sink threads update freely).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_closed_{0};
  std::atomic<std::uint64_t> streams_opened_{0};
  std::atomic<std::uint64_t> streams_closed_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> samples_ingested_{0};
  std::atomic<std::uint64_t> decision_batches_sent_{0};
  std::atomic<std::uint64_t> decision_windows_sent_{0};
  std::atomic<std::uint64_t> decision_windows_dropped_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> orphan_batches_{0};
};

}  // namespace svt::net

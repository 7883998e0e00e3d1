#include "net/gateway.hpp"

#include <stdexcept>
#include <utility>

namespace svt::net {

namespace {

constexpr std::size_t kRecvBufferBytes = 64 * 1024;

}  // namespace

ServeGateway::ServeGateway(std::shared_ptr<rt::ModelRegistry> registry, rt::StreamConfig config,
                           rt::EngineOptions options)
    : engine_(std::move(registry), config, [this, &options] {
        // The gateway owns delivery: its routing sink replaces any
        // user-provided one.
        options.sink = [this](std::span<const rt::WindowResult> batch) { deliver(batch); };
        return std::move(options);
      }()) {}

ServeGateway::~ServeGateway() { stop(); }

Endpoint ServeGateway::add_listener(const Endpoint& endpoint) {
  if (started_.load()) throw std::logic_error("ServeGateway: add_listener after start()");
  auto listener = std::make_unique<Listener>(Listener::listen(endpoint));
  const Endpoint bound = listener->local_endpoint();
  listeners_.push_back(std::move(listener));
  return bound;
}

void ServeGateway::start() {
  if (listeners_.empty()) throw std::logic_error("ServeGateway: start() without a listener");
  if (started_.exchange(true)) return;
  for (auto& listener : listeners_)
    accept_threads_.emplace_back([this, &listener] { accept_loop(*listener); });
}

void ServeGateway::stop() {
  // Idempotent: a second stop() (e.g. the destructor after an explicit
  // stop) joins whatever the first one left.
  stopping_.store(true);
  // Wake the accept loops first, close the fds only after the joins: a
  // listener fd closed while another thread polls it is a race (and the fd
  // number could be reused under that thread).
  for (auto& listener : listeners_) listener->request_stop();
  for (auto& thread : accept_threads_)
    if (thread.joinable()) thread.join();
  accept_threads_.clear();
  for (auto& listener : listeners_) listener->close();

  // Tear down live connections: a socket shutdown wakes the reader out of
  // recv and any worker blocked sending to the peer (not under the send
  // mutex, which that worker holds), so every reader runs its normal exit
  // path; then join them all.
  std::vector<std::shared_ptr<Connection>> live;
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto& [id, conn] : connections_) live.push_back(conn);
    connections_.clear();
  }
  for (auto& conn : live) conn->socket.shutdown_both();
  for (auto& conn : live)
    if (conn->reader.joinable()) conn->reader.join();
}

void ServeGateway::wait_connections_closed(std::size_t n) {
  std::unique_lock<std::mutex> lock(conn_mutex_);
  conn_cv_.wait(lock, [this, n] { return connections_closed_.load() >= n; });
}

GatewayStats ServeGateway::stats() const {
  GatewayStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_closed = connections_closed_.load();
  s.streams_opened = streams_opened_.load();
  s.streams_closed = streams_closed_.load();
  s.frames_received = frames_received_.load();
  s.samples_ingested = samples_ingested_.load();
  s.decision_batches_sent = decision_batches_sent_.load();
  s.decision_windows_sent = decision_windows_sent_.load();
  s.protocol_errors = protocol_errors_.load();
  s.orphan_batches = orphan_batches_.load();
  return s;
}

void ServeGateway::accept_loop(Listener& listener) {
  while (true) {
    Socket sock = listener.accept();
    if (!sock.valid()) return;  // Listener closed (stop()) or fatal error.
    auto conn = std::make_shared<Connection>(std::move(sock));
    connections_accepted_.fetch_add(1);
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    reap_finished_locked();
    if (stopping_.load()) {
      // Raced with stop(): do not register a connection nobody will join.
      conn->socket.shutdown_both();
      connections_closed_.fetch_add(1);
      conn_cv_.notify_all();
      continue;
    }
    connections_[next_conn_id_++] = conn;
    // Started under conn_mutex_, which the reader takes to mark itself done,
    // so no other accept loop can reap the connection before `reader` is set.
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void ServeGateway::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->second->done.load()) {
      if (it->second->reader.joinable()) it->second->reader.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

StatsFrame ServeGateway::snapshot_stats_frame() {
  const rt::EngineStats engine_stats = engine_.stats();
  StatsFrame stats;
  stats.windows_delivered = engine_stats.delivered_windows;
  stats.windows_rejected = engine_stats.rejected_windows;
  stats.frames_received = frames_received_.load();
  stats.samples_ingested = samples_ingested_.load();
  stats.streams_opened = streams_opened_.load();
  stats.streams_closed = streams_closed_.load();
  stats.protocol_errors = protocol_errors_.load();
  stats.windows_annotated = engine_stats.quality.windows_annotated;
  stats.windows_suppressed = engine_stats.quality.windows_suppressed;
  return stats;
}

bool ServeGateway::send_frame(Connection& conn, std::span<const std::uint8_t> bytes, bool last) {
  const std::lock_guard<std::mutex> lock(conn.send_mutex);
  if (conn.closed) return false;
  const bool sent = conn.socket.send_all(bytes);
  if (!sent) conn.socket.shutdown_both();  // Peer gone: wake the reader out of recv.
  conn.closed = last || !sent;
  return sent;
}

void ServeGateway::fail_connection(Connection& conn, ErrorCode code, std::string message) {
  protocol_errors_.fetch_add(1);
  ErrorFrame error;
  error.code = code;
  error.message = std::move(message);
  std::vector<std::uint8_t> bytes;
  append_error(bytes, error);
  send_frame(conn, bytes, /*last=*/true);  // The reader stops consuming input after this.
}

void ServeGateway::release_patients(const std::shared_ptr<Connection>& conn,
                                    const std::map<int, bool>& streams) {
  for (const auto& [pid, still_open] : streams) {
    // Evict BEFORE deregistering: the eviction is queued on the patient's
    // shard ahead of any chunks a re-opened stream could push, so a new
    // connection reusing the id starts from stream phase 0 — never from the
    // dead connection's leftovers.
    if (still_open) engine_.evict_patient(pid);
    const std::lock_guard<std::mutex> lock(routes_mutex_);
    const auto it = routes_.find(pid);
    if (it != routes_.end() && it->second == conn) routes_.erase(it);
  }
}

void ServeGateway::deliver(std::span<const rt::WindowResult> batch) {
  if (batch.empty()) return;
  std::shared_ptr<Connection> conn;
  {
    const std::lock_guard<std::mutex> lock(routes_mutex_);
    const auto it = routes_.find(batch.front().patient_id);
    if (it != routes_.end()) conn = it->second;
  }
  if (!conn) {
    orphan_batches_.fetch_add(1);
    return;
  }
  // One wire record per window, encoded into one frame; both scratch
  // vectors are thread-local, so each shard worker reuses its own across
  // batches (no per-window allocation).
  thread_local std::vector<DecisionRecord> records;
  records.clear();
  records.reserve(batch.size());
  for (const rt::WindowResult& w : batch) {
    DecisionRecord d;
    d.start_s = w.start_s;
    d.decision_value = w.decision_value;
    d.label = w.label;
    d.num_beats = static_cast<std::uint32_t>(w.num_beats);
    d.workload = w.workload;
    d.quality = w.quality;
    records.push_back(d);
  }
  thread_local std::vector<std::uint8_t> bytes;
  bytes.clear();
  append_decisions(bytes, batch.front().patient_id, records);
  if (!send_frame(*conn, bytes)) {
    orphan_batches_.fetch_add(1);  // Connection tearing down; batch dropped.
    return;
  }
  decision_batches_sent_.fetch_add(1);
  decision_windows_sent_.fetch_add(batch.size());
}

void ServeGateway::reader_loop(const std::shared_ptr<Connection>& conn) {
  FrameDecoder decoder;
  std::vector<std::uint8_t> recvbuf(kRecvBufferBytes);
  std::vector<double> samples_scratch;  ///< Reused per-connection decode buffer.
  std::vector<std::uint8_t> reply;      ///< Hello-ack and stats encode buffer.
  std::map<int, bool> streams;          ///< pid -> still accepting samples.
  bool helloed = false;
  bool clean_bye = false;
  bool failed = false;

  const auto fail = [&](ErrorCode code, std::string message) {
    fail_connection(*conn, code, std::move(message));
    failed = true;
  };

  while (!failed && !clean_bye) {
    const std::ptrdiff_t n = conn->socket.recv_some(recvbuf);
    if (n <= 0) {
      // Orderly shutdown mid-frame is a truncation; count it (the peer is
      // gone, so no error frame can be answered).
      if (n == 0 && decoder.finish() != ErrorCode::kNone) protocol_errors_.fetch_add(1);
      break;
    }
    decoder.feed(std::span<const std::uint8_t>(recvbuf.data(), static_cast<std::size_t>(n)));

    FrameDecoder::Frame frame;
    while (!failed && !clean_bye) {
      const auto status = decoder.next(frame);
      if (status == FrameDecoder::Status::kNeedMore) break;
      if (status == FrameDecoder::Status::kError) {
        fail(decoder.error(), decoder.error_message());
        break;
      }
      frames_received_.fetch_add(1);
      if (!helloed && frame.type != FrameType::kHello) {
        fail(ErrorCode::kProtocolViolation, "first frame must be hello");
        break;
      }
      switch (frame.type) {
        case FrameType::kHello: {
          HelloFrame hello;
          if (!parse_hello(frame.payload, hello)) {
            fail(ErrorCode::kBadPayload, "hello payload");
            break;
          }
          if (helloed) {
            fail(ErrorCode::kProtocolViolation, "duplicate hello");
            break;
          }
          if (hello.version != kProtocolVersion) {
            fail(ErrorCode::kBadVersion,
                 "client speaks version " + std::to_string(hello.version));
            break;
          }
          // Per-workload negotiation: a client that bounds how many
          // workloads it can demultiplex (non-zero max) must accept every
          // one this engine serves — decision frames interleave all of
          // them, so a partial subscription cannot be honoured.
          if (hello.max_workloads != 0 && hello.max_workloads < engine_.num_workloads()) {
            fail(ErrorCode::kConfigMismatch,
                 "client accepts " + std::to_string(hello.max_workloads) +
                     " workloads, server serves " + std::to_string(engine_.num_workloads()));
            break;
          }
          helloed = true;
          HelloAckFrame payload;
          payload.fs_hz = engine_.config().fs_hz;
          payload.window_s = engine_.config().window_s;
          payload.stride_s = engine_.config().stride_s;
          for (const auto& workload : engine_.workloads()) {
            WorkloadDescriptor desc;
            desc.name = workload->name();
            desc.num_features = static_cast<std::uint16_t>(workload->num_features());
            payload.workloads.push_back(std::move(desc));
          }
          reply.clear();
          append_hello_ack(reply, payload);
          send_frame(*conn, reply);
          break;
        }
        case FrameType::kStreamOpen: {
          StreamOpenFrame open;
          if (!parse_stream_open(frame.payload, open)) {
            fail(ErrorCode::kBadPayload, "stream_open payload");
            break;
          }
          if (open.fs_hz != engine_.config().fs_hz) {
            fail(ErrorCode::kConfigMismatch,
                 "stream fs " + std::to_string(open.fs_hz) + " Hz, server expects " +
                     std::to_string(engine_.config().fs_hz));
            break;
          }
          // Register the route. A patient may be re-opened on the SAME
          // connection after end_stream (the engine dropped its state, so a
          // fresh stream is well-defined); any other live claim — open on
          // this connection, or any claim by another — is a duplicate.
          bool mine = false;
          {
            const std::lock_guard<std::mutex> lock(routes_mutex_);
            const auto [it, inserted] = routes_.emplace(open.patient_id, conn);
            mine = inserted || it->second == conn;
          }
          const auto sit = streams.find(open.patient_id);
          if (!mine || (sit != streams.end() && sit->second)) {
            fail(ErrorCode::kDuplicateStream,
                 "patient " + std::to_string(open.patient_id) + " already streaming");
            break;
          }
          streams[open.patient_id] = true;
          streams_opened_.fetch_add(1);
          break;
        }
        case FrameType::kSampleChunk: {
          SampleChunkView chunk;
          if (!parse_sample_chunk(frame.payload, chunk)) {
            fail(ErrorCode::kBadPayload, "sample_chunk payload");
            break;
          }
          const auto it = streams.find(chunk.patient_id);
          if (it == streams.end() || !it->second) {
            fail(ErrorCode::kUnknownStream,
                 "patient " + std::to_string(chunk.patient_id) + " has no open stream");
            break;
          }
          if (chunk.num_samples > 0) {
            chunk.copy_samples(samples_scratch);
            // Blocks while the shard queue is full: the un-recv'd bytes
            // then back up into the kernel buffer and TCP throttles the
            // remote producer.
            engine_.push_samples(chunk.patient_id, samples_scratch);
            samples_ingested_.fetch_add(chunk.num_samples);
          }
          break;
        }
        case FrameType::kEndStream: {
          EndStreamFrame end;
          if (!parse_end_stream(frame.payload, end)) {
            fail(ErrorCode::kBadPayload, "end_stream payload");
            break;
          }
          const auto it = streams.find(end.patient_id);
          if (it == streams.end() || !it->second) {
            fail(ErrorCode::kUnknownStream,
                 "patient " + std::to_string(end.patient_id) + " has no open stream");
            break;
          }
          engine_.end_stream(end.patient_id);
          it->second = false;
          streams_closed_.fetch_add(1);
          break;
        }
        case FrameType::kBye: {
          // Defensive: a bye implies every stream is over. End any the
          // client forgot so their trailing windows still classify.
          for (auto& [pid, open] : streams) {
            if (open) {
              engine_.end_stream(pid);
              open = false;
              streams_closed_.fetch_add(1);
            }
          }
          // Fence so every queued chunk is classified and every decision
          // frame is sent before the stats answer (which therefore marks
          // end-of-decisions to the client): a worker's sink call, send
          // included, returns before it pops its next task.
          try {
            const std::lock_guard<std::mutex> lock(fence_mutex_);
            engine_.flush();
          } catch (const std::exception& err) {
            fail(ErrorCode::kServerError, err.what());
            break;
          }
          release_patients(conn, streams);
          streams.clear();
          reply.clear();
          append_stats(reply, snapshot_stats_frame());
          send_frame(*conn, reply, /*last=*/true);
          clean_bye = true;
          break;
        }
        default:
          fail(ErrorCode::kProtocolViolation, "unexpected frame type on a client connection");
          break;
      }
    }
  }

  release_patients(conn, streams);
  // FIN after everything sent: the conversation is over, so only now may
  // wait_connections_closed(n) count this connection (the CI smoke exits
  // the gateway on that count).
  conn->socket.shutdown_both();
  connections_closed_.fetch_add(1);
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    conn->done.store(true);
  }
  conn_cv_.notify_all();
}

}  // namespace svt::net

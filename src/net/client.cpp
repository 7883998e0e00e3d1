#include "net/client.hpp"

#include <utility>

namespace svt::net {

GatewayClient::GatewayClient(const Endpoint& endpoint) : socket_(connect_to(endpoint)) {
  HelloFrame hello;
  append_hello(sendbuf_, hello);
  flush();
  receiver_ = std::thread([this] { receive_loop(); });
}

GatewayClient::~GatewayClient() {
  socket_.shutdown_both();
  if (receiver_.joinable()) receiver_.join();
}

std::optional<HelloAckFrame> GatewayClient::hello_ack() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return ack_ || error_ || closed_; });
  return ack_;
}

bool GatewayClient::open_stream(std::int32_t patient_id, double fs_hz) {
  StreamOpenFrame open;
  open.patient_id = patient_id;
  open.fs_hz = fs_hz;
  append_stream_open(sendbuf_, open);
  return append_and_maybe_flush();
}

bool GatewayClient::send_samples(std::int32_t patient_id, std::span<const double> samples_mv) {
  append_sample_chunk(sendbuf_, patient_id, samples_mv);
  return append_and_maybe_flush();
}

bool GatewayClient::end_stream(std::int32_t patient_id) {
  EndStreamFrame end;
  end.patient_id = patient_id;
  append_end_stream(sendbuf_, end);
  return append_and_maybe_flush();
}

bool GatewayClient::append_and_maybe_flush() {
  if (sendbuf_.size() >= kFlushBytes) return flush();
  return !send_failed_;
}

bool GatewayClient::flush() {
  if (send_failed_) return false;
  if (sendbuf_.empty()) return true;
  if (!socket_.send_all(sendbuf_)) {
    send_failed_ = true;
    sendbuf_.clear();
    return false;
  }
  sendbuf_.clear();
  return true;
}

std::optional<StatsFrame> GatewayClient::finish() {
  append_bye(sendbuf_);
  if (!flush()) return std::nullopt;
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return stats_ || error_ || closed_; });
  return stats_;
}

std::vector<ReceivedDecision> GatewayClient::decisions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return decisions_;
}

std::optional<ErrorFrame> GatewayClient::error() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return error_;
}

void GatewayClient::receive_loop() {
  FrameDecoder decoder;
  std::vector<std::uint8_t> recvbuf(64 * 1024);
  bool done = false;
  while (!done) {
    const std::ptrdiff_t n = socket_.recv_some(recvbuf);
    if (n <= 0) break;
    decoder.feed(std::span<const std::uint8_t>(recvbuf.data(), static_cast<std::size_t>(n)));
    FrameDecoder::Frame frame;
    while (!done) {
      const auto status = decoder.next(frame);
      if (status == FrameDecoder::Status::kNeedMore) break;
      if (status == FrameDecoder::Status::kError) {
        // A gateway never sends malformed frames; treat it as a dead peer.
        done = true;
        break;
      }
      switch (frame.type) {
        case FrameType::kHelloAck: {
          HelloAckFrame ack;
          if (parse_hello_ack(frame.payload, ack)) {
            const std::lock_guard<std::mutex> lock(mutex_);
            ack_ = ack;
          }
          cv_.notify_all();
          break;
        }
        case FrameType::kDecision: {
          DecisionBatchView batch;
          if (!parse_decisions(frame.payload, batch)) break;
          const std::lock_guard<std::mutex> lock(mutex_);
          for (std::size_t i = 0; i < batch.num_decisions; ++i) {
            const DecisionRecord r = batch.record(i);
            ReceivedDecision d;
            d.patient_id = batch.patient_id;
            d.start_s = r.start_s;
            d.decision_value = r.decision_value;
            d.label = r.label;
            d.num_beats = r.num_beats;
            d.workload = r.workload;
            d.quality = r.quality;
            decisions_.push_back(d);
          }
          break;
        }
        case FrameType::kStats: {
          StatsFrame stats;
          if (parse_stats(frame.payload, stats)) {
            const std::lock_guard<std::mutex> lock(mutex_);
            stats_ = stats;
          }
          cv_.notify_all();
          // The stats answer is the server's last frame; keep reading only
          // for the FIN so the loop exits on its own.
          break;
        }
        case FrameType::kError: {
          ErrorFrame error;
          if (parse_error(frame.payload, error)) {
            const std::lock_guard<std::mutex> lock(mutex_);
            error_ = std::move(error);
          }
          cv_.notify_all();
          done = true;  // The server closes after a typed refusal.
          break;
        }
        default:
          break;  // Server-side protocol types we never expect; ignore.
      }
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

}  // namespace svt::net

// Network serving gateway: accept patient streams over TCP / Unix sockets.
//
// Binds the requested listeners, serves the deterministic training-free
// ward model (rt::synthetic_full_feature_model — the same unit the replay
// fixtures and loadgen --direct use, so a loopback round trip is
// bit-comparable to an in-process run), and streams decisions back to each
// client continuously.
//
//   ./serve_gateway [--tcp PORT] [--uds PATH] [--workers N] [--queue N]
//                   [--drop-oldest] [--flush-bytes B] [--fs HZ] [--window S]
//                   [--stride S] [--seed S] [--exit-after N]
//
// With neither --tcp nor --uds, an ephemeral TCP port is bound and printed.
// --exit-after N serves until N connections have come and gone, prints the
// gateway counters, and exits — the CI serving-smoke job uses this to stop
// the server once the load generator disconnects. Without it the gateway
// serves until killed. Exits 2, with a message, on a usage error or on a
// configuration the engine rejects.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/gateway.hpp"
#include "rt/cohort_replayer.hpp"

int main(int argc, char** argv) {
  using namespace svt;

  std::vector<net::Endpoint> endpoints;
  net::GatewayOptions options;
  rt::StreamConfig config;
  config.fs_hz = 250.0;
  config.window_s = 20.0;
  config.stride_s = 10.0;
  std::uint64_t seed = 21;
  std::size_t exit_after = 0;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const char* value = a + 1 < argc ? argv[a + 1] : nullptr;
    if (arg == "--tcp" && value) {
      endpoints.push_back(net::Endpoint::tcp(
          "127.0.0.1", static_cast<std::uint16_t>(std::strtoul(value, nullptr, 10))));
      ++a;
    } else if (arg == "--uds" && value) {
      endpoints.push_back(net::Endpoint::unix_path(value));
      ++a;
    } else if (arg == "--workers" && value) {
      options.engine.num_workers = static_cast<std::size_t>(std::strtoul(value, nullptr, 10));
      ++a;
    } else if (arg == "--queue" && value) {
      options.engine.queue_capacity = static_cast<std::size_t>(std::strtoul(value, nullptr, 10));
      ++a;
    } else if (arg == "--drop-oldest") {
      options.engine.backpressure = rt::BackpressurePolicy::kDropOldest;
      options.send_backpressure = rt::BackpressurePolicy::kDropOldest;
    } else if (arg == "--flush-bytes" && value) {
      options.flush_bytes = static_cast<std::size_t>(std::strtoul(value, nullptr, 10));
      ++a;
    } else if (arg == "--fs" && value) {
      config.fs_hz = std::strtod(value, nullptr);
      ++a;
    } else if (arg == "--window" && value) {
      config.window_s = std::strtod(value, nullptr);
      ++a;
    } else if (arg == "--stride" && value) {
      config.stride_s = std::strtod(value, nullptr);
      ++a;
    } else if (arg == "--seed" && value) {
      seed = std::strtoull(value, nullptr, 10);
      ++a;
    } else if (arg == "--exit-after" && value) {
      exit_after = static_cast<std::size_t>(std::strtoul(value, nullptr, 10));
      ++a;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--tcp PORT] [--uds PATH] [--workers N] [--queue N]"
                   " [--drop-oldest] [--flush-bytes B] [--fs HZ] [--window S] [--stride S]"
                   " [--seed S] [--exit-after N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (endpoints.empty()) endpoints.push_back(net::Endpoint::tcp("127.0.0.1", 0));

  auto registry = std::make_shared<rt::ModelRegistry>(rt::synthetic_full_feature_model(seed));
  std::unique_ptr<net::ServeGateway> serving;
  try {
    serving = std::make_unique<net::ServeGateway>(std::move(registry), config, options);
  } catch (const std::invalid_argument& e) {
    // A stream geometry or engine option the engine refuses (e.g. a window
    // that is not a whole number of strides, or --queue 0).
    std::fprintf(stderr, "serve_gateway: %s\n", e.what());
    return 2;
  }
  net::ServeGateway& gateway = *serving;
  for (const auto& endpoint : endpoints) {
    const auto bound = gateway.add_listener(endpoint);
    std::printf("listening on %s\n", bound.to_string().c_str());
  }
  std::printf("serving %.0f Hz, %.0f s windows / %.0f s stride, %zu worker%s (model seed %llu)\n",
              config.fs_hz, config.window_s, config.stride_s, options.engine.num_workers,
              options.engine.num_workers == 1 ? "" : "s", static_cast<unsigned long long>(seed));
  std::fflush(stdout);  // Drivers wait for the "listening on" lines.
  gateway.start();

  gateway.wait_connections_closed(exit_after > 0 ? exit_after
                                                 : std::numeric_limits<std::size_t>::max());
  gateway.stop();

  const auto stats = gateway.stats();
  std::printf("gateway: %" PRIu64 " connections, %" PRIu64 " streams, %" PRIu64
              " frames in, %" PRIu64 " samples in\n",
              stats.connections_closed, stats.streams_opened, stats.frames_received,
              stats.samples_ingested);
  std::printf("         %" PRIu64 " decision batches (%" PRIu64 " windows) out, %" PRIu64
              " windows dropped, %" PRIu64 " protocol errors, %" PRIu64 " orphan batches\n",
              stats.decision_batches_sent, stats.decision_windows_sent,
              stats.decision_windows_dropped, stats.protocol_errors, stats.orphan_batches);
  const auto cache = gateway.engine().stats().cache;
  std::printf("         segment cache: %.1f%% hit rate (%" PRIu64 " hits, %" PRIu64
              " misses, %" PRIu64 " evictions)\n",
              cache.hit_rate() * 100.0, cache.hits, cache.misses, cache.evictions);
  return 0;
}

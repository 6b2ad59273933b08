// The serving loop the daemons share (sm_notaryd, sm_notary_router):
// start a TcpServer, announce the bound port, serve until SIGTERM or
// SIGINT, then drain and print the connection counters.
#pragma once

#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "netio/server.h"

namespace sm::tools {

inline volatile std::sig_atomic_t g_serve_stop = 0;

inline void on_serve_signal(int) { g_serve_stop = 1; }

/// Serves `handler` under `config` until a signal arrives, then drains.
/// Prints "<name> listening on ADDR:PORT<detail>" to stderr once bound —
/// with --port 0 that line is how a script learns the kernel-assigned
/// port. Returns 1 when the server cannot start, 0 after a clean drain.
inline int serve_until_signal(const char* name,
                              const netio::ServerConfig& config,
                              netio::TcpServer::StreamHandler handler,
                              const std::string& detail) {
  netio::TcpServer server(config, std::move(handler));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "%s: server start failed: %s\n", name,
                 error.c_str());
    return 1;
  }
  std::signal(SIGTERM, on_serve_signal);
  std::signal(SIGINT, on_serve_signal);
  std::fprintf(stderr, "%s listening on %s:%u%s\n", name,
               config.bind_address.c_str(), server.port(), detail.c_str());
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "signal received, draining...\n");
  server.shutdown();
  const netio::ServerCounters counters = server.counters();
  std::fprintf(stderr,
               "drained: %llu connections, %llu frames (%llu malformed, "
               "%llu idle-closed)\n",
               static_cast<unsigned long long>(counters.connections_accepted),
               static_cast<unsigned long long>(counters.frames_handled),
               static_cast<unsigned long long>(counters.malformed_frames),
               static_cast<unsigned long long>(counters.idle_closed));
  return 0;
}

}  // namespace sm::tools

// rlblh_serve — the online metering daemon.
//
//   rlblh_serve --listen unix:/tmp/rlblh.sock --checkpoint-dir /var/lib/rlblh
//
// Accepts households over the serve/protocol.h frame protocol, steps each
// one's policy as readings arrive, and checkpoints at day boundaries so a
// restart resumes bitwise-identically (DESIGN.md §15). SIGTERM/SIGINT
// trigger a graceful drain: stop accepting, finish in-flight frames,
// persist every household's newest completed day, exit 0.
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include <unistd.h>

#include "obs/obs.h"
#include "serve/server.h"
#include "util/error.h"

namespace {

// Signal flag + self-pipe: the handler only writes a byte; the main thread
// blocks on the pipe, so shutdown needs no polling loop.
volatile std::sig_atomic_t g_signaled = 0;
int g_wake_pipe[2] = {-1, -1};

extern "C" void on_signal(int) {
  g_signaled = 1;
  const char byte = 1;
  [[maybe_unused]] ssize_t n = write(g_wake_pipe[1], &byte, 1);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --checkpoint-dir DIR [--listen unix:PATH|tcp:PORT]"
               " [--checkpoint-period DAYS] [--shards N]"
               " [--max-connections N] [--obs]\n"
               "  --shards N           session worker threads (0 = auto, "
               "at most %zu)\n"
               "  --max-connections N  admission cap (0 = 65536)\n",
               argv0, rlblh::serve::kMaxShards);
  return 2;
}

/// Parses a whole token of decimal digits; nullopt for anything else (a
/// sign, junk, an empty string, or a value past the size_t range).
std::optional<std::size_t> parse_count(const char* text) {
  if (*text == '\0') return std::nullopt;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return std::nullopt;
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text, nullptr, 10);
  if (errno == ERANGE || value > SIZE_MAX) return std::nullopt;
  return static_cast<std::size_t>(value);
}

}  // namespace

int main(int argc, char** argv) {
  rlblh::serve::ServeConfig config;
  bool obs_on = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--listen" && has_value) {
      config.listen = argv[++i];
    } else if (arg == "--checkpoint-dir" && has_value) {
      config.checkpoint_dir = argv[++i];
    } else if ((arg == "--checkpoint-period" || arg == "--shards" ||
                arg == "--max-connections") &&
               has_value) {
      const std::optional<std::size_t> value = parse_count(argv[++i]);
      if (!value) return usage(argv[0]);
      if (arg == "--checkpoint-period") {
        config.checkpoint_period_days = *value;
      } else if (arg == "--shards") {
        config.shards = *value;
      } else {
        config.max_connections = *value;
      }
    } else if (arg == "--obs") {
      obs_on = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (config.checkpoint_dir.empty()) return usage(argv[0]);
  if (obs_on) rlblh::obs::set_enabled(true);

  if (pipe(g_wake_pipe) != 0) {
    std::fprintf(stderr, "rlblh_serve: cannot create signal pipe\n");
    return 1;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    rlblh::serve::ServeServer server(config);
    server.start();
    // Scripts wait for this line; keep the format stable.
    std::printf("rlblh_serve listening on %s\n", server.endpoint().c_str());
    std::fflush(stdout);

    char byte = 0;
    while (!g_signaled) {
      const ssize_t n = read(g_wake_pipe[0], &byte, 1);
      if (n > 0 || (n < 0 && errno != EINTR)) break;
    }
    std::printf("rlblh_serve draining (%zu households, %zu days, "
                "%zu checkpoints)\n",
                server.household_count(), server.days_completed(),
                server.checkpoints_written());
    std::fflush(stdout);
    server.stop();
    std::printf("rlblh_serve stopped cleanly\n");
    return 0;
  } catch (const rlblh::DataError& e) {
    std::fprintf(stderr, "rlblh_serve: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rlblh_serve: %s\n", e.what());
    return 1;
  }
}

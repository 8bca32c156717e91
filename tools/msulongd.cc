/**
 * @file
 * msulongd — the fault-isolated multi-tenant analysis daemon.
 *
 * Listens on an AF_UNIX socket for framed compile+run+analyze jobs
 * (see src/service/protocol.h), executes them over a shared worker
 * pool with per-tenant admission control and per-job fault isolation,
 * and drains gracefully on SIGTERM/SIGINT or a client drain request:
 * stop accepting, answer every admitted job (finished or cancelled),
 * flush telemetry, exit 0.
 *
 * Chaos flags inject deterministic faults into the daemon's own
 * accept/read/write/job paths so CI can prove that every injected
 * fault degrades exactly one client, never the daemon.
 *
 * Usage:
 *   msulongd --socket=/tmp/msulong.sock [--jobs N] [--queue-cap N]
 *            [--tenant-cap N] [--watchdog-ms N] [--retries N]
 *            [--cache-cap N] [--drain-grace-ms N] [--max-frame-bytes N]
 *            [--max-steps N] [--heap-limit BYTES] [--output-limit BYTES]
 *            [--deadline-ms MS]
 *            [--chaos-seed N] [--chaos-accept P] [--chaos-read P]
 *            [--chaos-write P] [--chaos-job P]
 *            [--postmortem-dir DIR] [--postmortem-keep N]
 *            [--metrics-sock PATH] [--metrics-dump FILE]
 *            [--metrics-json FILE] [--metrics-expo FILE]
 *            [--trace-out FILE] [--stats]
 *   msulongd --help
 *
 * `--help` prints this usage and exits 0; any flag not listed above is
 * a usage error (exit 2). Neither starts a daemon.
 *
 * --metrics-sock serves the live Prometheus text exposition: every
 * connection to PATH receives one scrape and is closed, so
 * `curl --unix-socket PATH` (or nc -U) works as a poll target while
 * the daemon is under load. --metrics-dump writes the same text once
 * at exit; --postmortem-dir persists a msulong.postmortem/v1 JSON
 * document for every job that dies (bug, host fault, watchdog
 * cancellation, resource limit).
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/expo.h"
#include "service/server.h"
#include "support/fault.h"
#include "tools/driver.h"

using namespace sulong;
using namespace sulong::service;

namespace
{

/**
 * Install a prefix rule over one daemon fault-site family when the
 * flag is present (value = firing probability per visit, e.g.
 * --chaos-read=0.05). @return true when installed.
 */
bool
addChaosRule(FaultInjector &faults, int argc, char **argv,
             const char *flag, const char *site_prefix)
{
    std::string value = parseStringFlag(argc, argv, flag);
    if (value.empty())
        return false;
    char *end = nullptr;
    double probability = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || probability < 0 ||
        probability > 1) {
        std::fprintf(stderr,
                     "error: invalid value '%s' for --%s: expected a "
                     "probability in [0,1]\n", value.c_str(), flag);
        std::exit(2);
    }
    FaultInjector::Rule rule;
    rule.site = site_prefix;
    rule.sitePrefix = true;
    rule.action = FaultInjector::Action::hostException;
    rule.probability = probability;
    faults.addRule(rule);
    return true;
}

/**
 * Bind an AF_UNIX listener at @p path for the live metrics exposition.
 * @return the listening fd, or -1 after printing a diagnostic.
 */
int
bindMetricsSocket(const std::string &path)
{
    sockaddr_un addr{};
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr,
                     "msulongd: --metrics-sock path must be 1..%zu "
                     "bytes\n", sizeof(addr.sun_path) - 1);
        return -1;
    }
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        std::fprintf(stderr, "msulongd: metrics socket: %s\n",
                     std::strerror(errno));
        return -1;
    }
    ::unlink(path.c_str());
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd, 8) != 0) {
        std::fprintf(stderr, "msulongd: metrics socket %s: %s\n",
                     path.c_str(), std::strerror(errno));
        ::close(fd);
        return -1;
    }
    return fd;
}

/**
 * Serve one Prometheus scrape per accepted connection until the
 * listener is closed. Runs detached; closing @p listen_fd at drain
 * time makes accept() fail and the loop return.
 */
void
serveMetricsSocket(int listen_fd)
{
    for (;;) {
        int conn = ::accept(listen_fd, nullptr, nullptr);
        if (conn < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        std::string text = sulong::obs::prometheusTextFromGlobal();
        const char *p = text.data();
        size_t left = text.size();
        while (left > 0) {
            ssize_t n = ::send(conn, p, left, MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                break;
            }
            p += n;
            left -= static_cast<size_t>(n);
        }
        ::close(conn);
    }
}

const char kUsage[] =
    "usage: msulongd [--socket=PATH] [--jobs N] [--queue-cap N]\n"
    "                [--tenant-cap N] [--watchdog-ms N] [--retries N]\n"
    "                [--cache-cap N] [--drain-grace-ms N]\n"
    "                [--max-frame-bytes N] [--max-steps N]\n"
    "                [--heap-limit BYTES] [--output-limit BYTES]\n"
    "                [--deadline-ms MS] [--chaos-seed N]\n"
    "                [--chaos-accept P] [--chaos-read P]\n"
    "                [--chaos-write P] [--chaos-job P]\n"
    "                [--postmortem-dir DIR] [--postmortem-keep N]\n"
    "                [--metrics-sock PATH] [--metrics-dump FILE]\n"
    "                [--metrics-json FILE] [--metrics-expo FILE]\n"
    "                [--trace-out FILE] [--stats]\n";

} // namespace

int
main(int argc, char **argv)
{
    if (hasFlag(argc, argv, "help")) {
        std::fputs(kUsage, stdout);
        return 0;
    }
    const FlagSpec own{
        {},
        {"--socket", "--jobs", "-j", "--queue-cap", "--tenant-cap",
         "--watchdog-ms", "--retries", "--cache-cap", "--drain-grace-ms",
         "--max-frame-bytes", "--chaos-seed", "--chaos-accept",
         "--chaos-read", "--chaos-write", "--chaos-job", "--postmortem-dir",
         "--postmortem-keep", "--metrics-sock", "--metrics-dump"},
    };
    rejectUnknownFlags(argc, argv, {&own, &limitFlagSpec(), &obsFlagSpec()});

    std::string socket_path =
        parseStringFlag(argc, argv, "socket", "/tmp/msulong.sock");

    // Block the shutdown signals in every thread the daemon will ever
    // spawn, then dedicate one thread to sigwait: signal handling
    // becomes ordinary synchronous code with no async-signal-safety
    // constraints on the drain path.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGTERM);
    sigaddset(&sigs, SIGINT);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    ObsFlags obs_flags = parseObsFlags(argc, argv);
    // --metrics-dump is the daemon-flavored spelling of --metrics-expo;
    // --metrics-sock serves the same text live. Both imply collection.
    std::string metrics_dump = parseStringFlag(argc, argv, "metrics-dump");
    if (!metrics_dump.empty() && obs_flags.metricsExpo.empty())
        obs_flags.metricsExpo = metrics_dump;
    std::string metrics_sock = parseStringFlag(argc, argv, "metrics-sock");
    if (!metrics_dump.empty() || !metrics_sock.empty())
        obs::setMetricsEnabled(true);

    ServiceConfig config;
    config.workers = parseJobsFlag(argc, argv, 2);
    config.queueCapacity = static_cast<size_t>(
        parseUint64Flag(argc, argv, "queue-cap", 64));
    config.tenantCapacity = static_cast<size_t>(
        parseUint64Flag(argc, argv, "tenant-cap", 16));
    config.watchdogMs = static_cast<unsigned>(
        parseUint64Flag(argc, argv, "watchdog-ms", 10000));
    config.retries =
        static_cast<unsigned>(parseUint64Flag(argc, argv, "retries", 0));
    config.cacheCapacity = static_cast<size_t>(
        parseUint64Flag(argc, argv, "cache-cap", 64));
    config.limitCeiling = parseLimitFlags(argc, argv);
    config.postmortemDir = parseStringFlag(argc, argv, "postmortem-dir");
    config.postmortemKeep = static_cast<size_t>(
        parseUint64Flag(argc, argv, "postmortem-keep", 16));

    FaultInjector faults(parseUint64Flag(argc, argv, "chaos-seed", 0));
    bool chaos = false;
    chaos |= addChaosRule(faults, argc, argv, "chaos-accept",
                          "service.accept/");
    chaos |= addChaosRule(faults, argc, argv, "chaos-read",
                          "service.read/");
    chaos |= addChaosRule(faults, argc, argv, "chaos-write",
                          "service.write/");
    chaos |= addChaosRule(faults, argc, argv, "chaos-job",
                          "service.job/");
    if (chaos)
        config.faults = &faults;

    ServerOptions server_options;
    server_options.socketPath = socket_path;
    server_options.maxFrameBytes = static_cast<uint32_t>(parseUint64Flag(
        argc, argv, "max-frame-bytes", kDefaultMaxFrameBytes));
    server_options.drainGraceMs = static_cast<unsigned>(
        parseUint64Flag(argc, argv, "drain-grace-ms", 2000));

    ServiceServer server(config, server_options);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "msulongd: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr, "msulongd: listening on %s (%u workers)\n",
                 socket_path.c_str(), server.service().workers());

    int metrics_fd = -1;
    if (!metrics_sock.empty()) {
        metrics_fd = bindMetricsSocket(metrics_sock);
        if (metrics_fd < 0)
            return 1;
        std::thread([metrics_fd] { serveMetricsSocket(metrics_fd); })
            .detach();
        std::fprintf(stderr, "msulongd: metrics exposition on %s\n",
                     metrics_sock.c_str());
    }

    std::thread signal_thread([&server, &sigs] {
        int sig = 0;
        if (sigwait(&sigs, &sig) == 0) {
            std::fprintf(stderr,
                         "msulongd: received signal %d, draining\n", sig);
            server.requestDrain();
        }
    });
    signal_thread.detach();

    int rc = server.runUntilDrained();
    if (metrics_fd >= 0) {
        ::close(metrics_fd);
        ::unlink(metrics_sock.c_str());
    }
    // Telemetry flushes after the last job has answered, so the
    // document reflects the whole run.
    if (!writeObsOutputs(obs_flags))
        rc = rc == 0 ? 1 : rc;
    std::fprintf(stderr, "msulongd: drained, exiting %d\n", rc);
    return rc;
}

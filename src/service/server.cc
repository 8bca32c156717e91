#include "service/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.h"
#include "support/fault.h"

namespace sulong::service
{

/**
 * One accepted client. The reader thread owns the receive side; job
 * responses arrive from worker threads, serialized by writeMutex. The
 * fd is closed exactly once, by whoever observes pendingClose with no
 * job in flight — so a client that sent EOF after its requests still
 * receives every response before the socket goes away.
 */
struct ServiceServer::Connection
{
    explicit Connection(uint32_t max_frame_bytes)
        : reader(max_frame_bytes)
    {}

    int fd = -1;
    uint64_t id = 0;
    std::mutex writeMutex;
    /// Cleared when the connection is being torn down; writers bail.
    std::atomic<bool> open{true};
    /// Set when the reader has exited; the fd closes once no job of
    /// this connection is still awaiting its response write.
    std::atomic<bool> pendingClose{false};
    /// Jobs admitted for this connection whose response is not yet
    /// written.
    std::atomic<int> inFlight{0};
    FrameReader reader;
    std::thread thread;
};

ServiceServer::ServiceServer(const ServiceConfig &service_config,
                             const ServerOptions &options)
    : options_(options), faults_(service_config.faults),
      service_(std::make_unique<AnalysisService>(service_config))
{}

ServiceServer::~ServiceServer()
{
    requestDrain();
    runUntilDrained();
}

bool
ServiceServer::start(std::string *error)
{
    sockaddr_un addr{};
    if (options_.socketPath.empty() ||
        options_.socketPath.size() >= sizeof(addr.sun_path)) {
        if (error != nullptr)
            *error = "socket path must be 1.." +
                std::to_string(sizeof(addr.sun_path) - 1) + " bytes";
        return false;
    }
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        if (error != nullptr)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    ::unlink(options_.socketPath.c_str());
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, options_.socketPath.c_str(),
                options_.socketPath.size() + 1);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        if (error != nullptr)
            *error = "bind " + options_.socketPath + ": " +
                std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    if (::listen(listenFd_, 64) != 0) {
        if (error != nullptr)
            *error = std::string("listen: ") + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    if (::pipe(wakePipe_) != 0) {
        if (error != nullptr)
            *error = std::string("pipe: ") + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
ServiceServer::acceptLoop()
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    while (!stopAccept_.load(std::memory_order_relaxed)) {
        pollfd fds[2] = {
            {listenFd_, POLLIN, 0},
            {wakePipe_[0], POLLIN, 0},
        };
        int rc = ::poll(fds, 2, 200);
        if (stopAccept_.load(std::memory_order_relaxed))
            break;
        if (rc <= 0 || (fds[0].revents & POLLIN) == 0)
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        uint64_t id = ++connCounter_;
        if (faults_ != nullptr) {
            try {
                faults_->at("service.accept/" + std::to_string(id));
            } catch (...) {
                // An accept-path fault costs exactly this connection;
                // the loop (and every other client) continues.
                reg.counter("service.faults.accept").inc();
                ::close(fd);
                continue;
            }
        }
        reg.counter("service.connections").inc();
        auto conn = std::make_shared<Connection>(options_.maxFrameBytes);
        conn->fd = fd;
        conn->id = id;
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            connections_.push_back(conn);
        }
        conn->thread = std::thread([this, conn] { readerLoop(conn); });
    }
}

void
ServiceServer::maybeCloseFd(const std::shared_ptr<Connection> &conn)
{
    if (!conn->pendingClose.load(std::memory_order_acquire) ||
        conn->inFlight.load(std::memory_order_acquire) != 0)
        return;
    std::lock_guard<std::mutex> lock(conn->writeMutex);
    if (conn->fd >= 0) {
        ::close(conn->fd);
        conn->fd = -1;
    }
    conn->open.store(false, std::memory_order_release);
}

void
ServiceServer::readerLoop(std::shared_ptr<Connection> conn)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    char buf[4096];
    while (conn->open.load(std::memory_order_relaxed)) {
        pollfd pfd = {conn->fd, POLLIN, 0};
        int rc = ::poll(&pfd, 1, 100);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (rc == 0)
            continue;
        ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        if (n == 0) {
            // EOF. A partial frame still buffered was truncated by the
            // peer; there is nobody left to tell, so close quietly.
            break;
        }
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN)
                continue;
            break;
        }
        if (faults_ != nullptr) {
            try {
                faults_->at("service.read/" + std::to_string(conn->id));
            } catch (...) {
                // A read-path fault degrades one connection to a
                // structured error; the daemon survives.
                reg.counter("service.faults.read").inc();
                sendError(conn, ErrorInfo{"read-fault",
                                          "injected fault on the receive "
                                          "path; connection closing",
                                          0});
                break;
            }
        }
        conn->reader.feed(std::string_view(buf, static_cast<size_t>(n)));
        bool poisoned = false;
        for (;;) {
            Frame frame;
            DecodeStatus status = conn->reader.next(&frame);
            if (status == DecodeStatus::needMore)
                break;
            if (status == DecodeStatus::frame) {
                handleFrame(conn, std::move(frame));
                continue;
            }
            // The stream cannot resynchronize after a framing error:
            // report it in-band, then close this connection only.
            reg.counter("service.errors.protocol").inc();
            ErrorInfo info;
            info.code = status == DecodeStatus::oversized
                ? "oversized-frame"
                : "malformed-frame";
            info.detail =
                std::string("protocol error: ") + decodeStatusName(status);
            sendError(conn, info);
            poisoned = true;
            break;
        }
        if (poisoned)
            break;
    }
    conn->pendingClose.store(true, std::memory_order_release);
    maybeCloseFd(conn);
}

void
ServiceServer::handleFrame(const std::shared_ptr<Connection> &conn,
                           Frame frame)
{
    switch (frame.type) {
      case FrameType::jobRequest:
        handleJobRequest(conn, frame.payload);
        break;
      case FrameType::healthRequest:
        sendFrame(conn, FrameType::healthResponse, service_->healthJson());
        break;
      case FrameType::statsRequest:
        handleStatsRequest(conn, frame.payload);
        break;
      case FrameType::drainRequest:
        sendFrame(conn, FrameType::drainAck,
                  "{\"schema\":\"msulong.drain/v1\"}");
        requestDrain();
        break;
      default:
        // Response-direction types from a client are a protocol misuse,
        // but a recoverable one: the stream is still framed.
        obs::MetricsRegistry::global()
            .counter("service.errors.protocol")
            .inc();
        sendError(conn,
                  ErrorInfo{"bad-request",
                            "unexpected frame type from a client", 0});
        break;
    }
}

void
ServiceServer::handleJobRequest(const std::shared_ptr<Connection> &conn,
                                const std::string &payload)
{
    obs::JsonValue doc;
    std::string why;
    if (!obs::parseJson(payload, &doc, &why)) {
        sendError(conn, ErrorInfo{"bad-request",
                                  "request is not valid JSON: " + why, 0});
        return;
    }
    JobRequest request;
    if (!decodeJobRequest(doc, &request, &why)) {
        sendError(conn, ErrorInfo{"bad-request", why, 0});
        return;
    }
    conn->inFlight.fetch_add(1, std::memory_order_acq_rel);
    uint64_t retry_after = 0;
    AdmitStatus status = service_->submit(
        std::move(request),
        [this, conn](const JobOutcome &outcome) {
            bool injected = false;
            if (faults_ != nullptr) {
                try {
                    faults_->at("service.write/" +
                                std::to_string(outcome.id));
                } catch (...) {
                    injected = true;
                }
            }
            bool wrote;
            if (injected) {
                // Even a failing response path answers the client in a
                // structured way before giving up on the connection.
                obs::MetricsRegistry::global()
                    .counter("service.faults.write")
                    .inc();
                wrote = sendError(
                    conn,
                    ErrorInfo{"write-fault",
                              "injected fault writing the response for "
                              "job " + std::to_string(outcome.id),
                              0});
                closeConnection(conn);
            } else {
                wrote = sendFrame(conn, FrameType::jobResponse,
                                  encodeJobResponse(outcome));
                if (!wrote)
                    closeConnection(conn);
            }
            conn->inFlight.fetch_sub(1, std::memory_order_acq_rel);
            maybeCloseFd(conn);
        },
        &retry_after);
    if (status == AdmitStatus::accepted)
        return;
    conn->inFlight.fetch_sub(1, std::memory_order_acq_rel);
    switch (status) {
      case AdmitStatus::overloadedGlobal:
        sendError(conn, ErrorInfo{"overloaded",
                                  "service queue is full", retry_after});
        break;
      case AdmitStatus::overloadedTenant:
        sendError(conn,
                  ErrorInfo{"overloaded",
                            "tenant admission share is full", retry_after});
        break;
      case AdmitStatus::draining:
        sendError(conn, ErrorInfo{"draining",
                                  "service is draining; not accepting "
                                  "new jobs", 0});
        break;
      default:
        sendError(conn, ErrorInfo{"bad-request",
                                  "request rejected (source exceeds the "
                                  "configured size limit or nests deeper "
                                  "than the front end accepts)", 0});
        break;
    }
}

void
ServiceServer::handleStatsRequest(const std::shared_ptr<Connection> &conn,
                                  const std::string &payload)
{
    obs::MetricsRegistry::global().counter("service.stats.requests").inc();
    StatsRequest request;
    // An empty payload is the simplest valid scrape (JSON format, no
    // trace filter); anything else must decode cleanly.
    if (!payload.empty()) {
        obs::JsonValue doc;
        std::string why;
        if (!obs::parseJson(payload, &doc, &why)) {
            sendError(conn,
                      ErrorInfo{"bad-request",
                                "stats request is not valid JSON: " + why,
                                0});
            return;
        }
        if (!decodeStatsRequest(doc, &request, &why)) {
            sendError(conn, ErrorInfo{"bad-request", why, 0});
            return;
        }
    }
    sendFrame(conn, FrameType::statsResponse, service_->statsJson(request));
}

bool
ServiceServer::sendFrame(const std::shared_ptr<Connection> &conn,
                         FrameType type, std::string_view payload)
{
    std::string bytes = encodeFrame(type, payload);
    std::lock_guard<std::mutex> lock(conn->writeMutex);
    if (conn->fd < 0 || !conn->open.load(std::memory_order_relaxed))
        return false;
    const char *p = bytes.data();
    size_t left = bytes.size();
    while (left > 0) {
        ssize_t n = ::send(conn->fd, p, left, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        left -= static_cast<size_t>(n);
    }
    return true;
}

bool
ServiceServer::sendError(const std::shared_ptr<Connection> &conn,
                         const ErrorInfo &info)
{
    return sendFrame(conn, FrameType::error, encodeErrorPayload(info));
}

void
ServiceServer::closeConnection(const std::shared_ptr<Connection> &conn)
{
    std::lock_guard<std::mutex> lock(conn->writeMutex);
    conn->open.store(false, std::memory_order_release);
    if (conn->fd >= 0) {
        // Shutdown (not close) so the reader thread, which may be
        // polling the fd, wakes with EOF and performs the single close.
        ::shutdown(conn->fd, SHUT_RDWR);
    }
}

void
ServiceServer::requestDrain()
{
    service_->beginDrain();
    {
        std::lock_guard<std::mutex> lock(drainMutex_);
        drainRequested_ = true;
    }
    drainCv_.notify_all();
    if (wakePipe_[1] >= 0) {
        char byte = 'd';
        [[maybe_unused]] ssize_t rc = ::write(wakePipe_[1], &byte, 1);
    }
}

int
ServiceServer::runUntilDrained()
{
    {
        std::unique_lock<std::mutex> lock(drainMutex_);
        drainCv_.wait(lock, [this] { return drainRequested_; });
    }
    std::lock_guard<std::mutex> shutdown_lock(shutdownMutex_);
    if (drained_)
        return 0;
    drained_ = true;
    // 1. Stop accepting and take the socket out of the filesystem.
    stopAccept_.store(true, std::memory_order_relaxed);
    if (wakePipe_[1] >= 0) {
        char byte = 'q';
        [[maybe_unused]] ssize_t rc = ::write(wakePipe_[1], &byte, 1);
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(options_.socketPath.c_str());
    }
    // 2. Finish or cancel every admitted job. Readers stay up so new
    //    requests during the drain get structured "draining" replies,
    //    and every response still has a socket to land on.
    service_->drain(options_.drainGraceMs);
    // 3. Only now close the client sockets: data first, sockets last.
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        conns.swap(connections_);
    }
    for (const auto &conn : conns)
        closeConnection(conn);
    for (const auto &conn : conns) {
        if (conn->thread.joinable())
            conn->thread.join();
        std::lock_guard<std::mutex> lock(conn->writeMutex);
        if (conn->fd >= 0) {
            ::close(conn->fd);
            conn->fd = -1;
        }
    }
    for (int &fd : wakePipe_) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
    return 0;
}

} // namespace sulong::service

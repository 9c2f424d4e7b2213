#include "cosoft/net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "cosoft/common/check.hpp"
#include "cosoft/common/hot_path.hpp"
#include "cosoft/obs/flight_recorder.hpp"

namespace cosoft::net {

namespace {

constexpr std::uint32_t kMaxFrame = 64U << 20;

/// Largest rx staging buffer a channel keeps between frames; a larger
/// outlier frame is served and then the buffer is released so one 64MB
/// snapshot does not pin 64MB per connection forever.
constexpr std::size_t kRxKeepBytes = 1U << 20;

/// Bulk-read bounce buffer per channel: one recv refills it and frames parse
/// out of it without further syscalls. Sized so a burst of small frames
/// (the fan-out steady state) lands in one read, while staying cheap enough
/// to hold per connection at high session counts; payload remainders at
/// least this large bypass it and recv straight into the staging vector.
constexpr std::size_t kRxBufBytes = 8U << 10;

/// Frames the reactor processes per channel per visit before yielding to the
/// other registered fds. Leftover readiness is *carried* by the shard
/// (attention list) rather than re-reported by the poller — mandatory under
/// edge-triggered epoll, where the edge fires once. Keeps one firehose peer
/// from starving everyone else on its shard.
constexpr int kFramesPerVisit = 64;

/// Gathered-flush rounds per write visit before the channel yields its
/// shard (the leftover batch rides the attention list). With a full batch
/// ~256KiB (WritevBatch::kMaxBytes), four rounds ≈ 1MiB per visit.
constexpr int kFlushRoundsPerVisit = 4;

void set_nonblocking(int fd) { ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK); }

}  // namespace

TcpChannel::TcpChannel(int fd, std::shared_ptr<Reactor> reactor)
    : fd_(fd), reactor_(std::move(reactor)) {
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // The reactor does all I/O nonblocking: a stalled peer must cost a
    // skipped visit, never a blocked loop thread.
    set_nonblocking(fd_);
    reactor_->add(this);
}

void TcpChannel::on_receive(ReceiveHandler handler) {
    const MutexLock lock{mu_};
    receive_ = std::move(handler);
}

void TcpChannel::on_close(CloseHandler handler) {
    const MutexLock lock{mu_};
    close_handler_ = std::move(handler);
}

void TcpChannel::configure_send_queue(const SendQueueOptions& opts) {
    const MutexLock lock{out_mu_};
    send_opts_ = opts;
}

void TcpChannel::on_backpressure(BackpressureHandler handler) {
    const MutexLock lock{out_mu_};
    backpressure_ = std::move(handler);
}

TcpChannel::~TcpChannel() {
    close();
    // Wait for the reactor to settle the write side: flush within the drain
    // budget, SHUT_WR, or give up on a dead/stalled peer. The read side
    // keeps consuming (discarding) inbound bytes throughout — those
    // lingering reads are what keep a bursty peer from wedging our own
    // flush behind a closed receive window.
    {
        MutexLock lock{out_mu_};
        while (!flush_complete_) lock.wait(flushed_cv_);
    }
    // Blocking handshake: after remove() returns, the loop thread will never
    // touch this channel (or its fd) again, so closing the fd here cannot
    // race the reactor into fd-reuse corruption.
    reactor_->remove(this);
    ::close(fd_);
}

// --------------------------------------------------------------------------
// Reactor-facing surface (loop thread).

short TcpChannel::poll_interest() {
    short events = 0;
    if (read_open_) events |= POLLIN;
    {
        const MutexLock lock{out_mu_};
        // Frames a SendCork holds are not the shard's to write (see
        // service_write), so they raise no write interest either.
        const bool draining = draining_.load(std::memory_order_acquire);
        if (!wr_shut_ && (!wr_batch_.empty() || (!outbox_.empty() && !corked_) || draining)) {
            events |= POLLOUT;
        }
    }
    return events;
}

CO_HOT_PATH TcpChannel::ServiceOutcome TcpChannel::service(short revents) {
    CO_HOT_SCOPE("net.tcp.service");
#if defined(COSOFT_THREAD_CHECKED)
    // The rx_* parse state is confined to the owning reactor shard; this is
    // the single entry point for it. (The write side is out_mu_-guarded, not
    // shard-confined — send() flushes inline from caller threads.)
    if (!reactor_->on_reactor_thread()) {
        detail::check_failed("TcpChannel::service runs only on a reactor shard thread", __FILE__,
                             __LINE__, "foreign thread entered the reactor-only I/O path");
    }
#endif
    ServiceOutcome outcome;
    if (abort_.load(std::memory_order_acquire)) {
        if (read_open_) fail_read_side();
        fail_write_side();  // idempotent: no-op once the write side is retired
    } else {
        if ((revents & (POLLHUP | POLLERR)) != 0) rx_hup_seen_ = true;
        if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
            if (handle_readable(rx_hup_seen_)) outcome.again |= POLLIN;
        }
        if (service_write()) outcome.again |= POLLOUT;
    }
    report_close_from_reactor();
    outcome.timed = draining_.load(std::memory_order_acquire) && !wr_shut_;
    return outcome;
}

bool TcpChannel::handle_readable(bool hup) {
    if (!read_open_) return false;
    if (rx_buf_.size() != kRxBufBytes) rx_buf_.resize(kRxBufBytes);
    // One bulk recv serves many frames: headers and small payloads parse
    // straight out of rx_buf_, so a typical visit costs one syscall where
    // the per-field recv loop cost three per frame (header, payload, and a
    // confirming EAGAIN). A short read means the socket buffer is empty —
    // under both level- and edge-triggered polling it is safe to stop right
    // there, because bytes arriving after it raise a fresh readiness event.
    // The exception is a hangup hint: the FIN rides this very event, so an
    // edge-triggered poller will never re-report it. In that case keep
    // recv'ing to EAGAIN/EOF instead of trusting the short read.
    bool drained = false;
    int frames = 0;
    while (frames < kFramesPerVisit) {
        if (rx_buf_pos_ == rx_buf_len_) {
            if (drained) return false;  // socket empty, buffer consumed
            // Large payload remainder: bypass the bounce buffer and recv
            // straight into the staging vector (one syscall for the bulk,
            // no second copy).
            if (rx_in_payload_ && rx_size_ - rx_payload_have_ >= rx_buf_.size()) {
                if (rx_payload_.size() < rx_size_) rx_payload_.resize(rx_size_);
                const std::size_t need = rx_size_ - rx_payload_have_;
                const ssize_t r =
                    ::recv(fd_, rx_payload_.data() + rx_payload_have_, need, MSG_DONTWAIT);
                if (r < 0) {
                    if (errno == EINTR) continue;
                    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
                    fail_read_side();
                    return false;
                }
                if (r == 0) {  // orderly shutdown
                    fail_read_side();
                    return false;
                }
                rx_payload_have_ += static_cast<std::size_t>(r);
                drained = !hup && static_cast<std::size_t>(r) < need;
                if (rx_payload_have_ == rx_size_) {
                    // The bypass recv finished the frame: deliver here, since
                    // the parse step below only fires on bounce-buffer bytes.
                    deliver_inbound(protocol::Frame::copy_of({rx_payload_.data(), rx_size_}));
                    if (rx_payload_.size() > kRxKeepBytes) {
                        rx_payload_.clear();
                        rx_payload_.shrink_to_fit();
                    }
                    rx_in_payload_ = false;
                    rx_header_have_ = 0;
                    ++frames;
                }
                continue;
            }
            const ssize_t r = ::recv(fd_, rx_buf_.data(), rx_buf_.size(), MSG_DONTWAIT);
            if (r < 0) {
                if (errno == EINTR) continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK) return false;  // nothing pending
                fail_read_side();
                return false;
            }
            if (r == 0) {  // orderly shutdown
                fail_read_side();
                return false;
            }
            rx_buf_pos_ = 0;
            rx_buf_len_ = static_cast<std::size_t>(r);
            drained = !hup && rx_buf_len_ < rx_buf_.size();
        }
        const std::size_t avail = rx_buf_len_ - rx_buf_pos_;
        const std::uint8_t* cursor = rx_buf_.data() + rx_buf_pos_;
        if (!rx_in_payload_) {
            if (rx_header_have_ < 4) {
                const std::size_t take = std::min<std::size_t>(4 - rx_header_have_, avail);
                std::memcpy(rx_header_ + rx_header_have_, cursor, take);
                rx_header_have_ += take;
                rx_buf_pos_ += take;
                if (rx_header_have_ < 4) continue;  // header split across reads
            }
            rx_size_ = static_cast<std::uint32_t>(rx_header_[0]) |
                       (static_cast<std::uint32_t>(rx_header_[1]) << 8) |
                       (static_cast<std::uint32_t>(rx_header_[2]) << 16) |
                       (static_cast<std::uint32_t>(rx_header_[3]) << 24);
            if (rx_size_ > kMaxFrame) {
                fail_read_side();
                return false;
            }
            if (rx_size_ == 0) {
                // Empty frame: complete at the header — the payload step
                // below only runs when buffered bytes remain, and a
                // header-only read may have none.
                deliver_inbound(protocol::Frame{});
                rx_header_have_ = 0;
                ++frames;
                continue;
            }
            rx_payload_have_ = 0;
            rx_in_payload_ = true;
            continue;
        }
        if (rx_payload_have_ == 0 && avail >= rx_size_) {
            // Whole frame already buffered: frame the bytes in place, no
            // trip through the staging vector.
            deliver_inbound(protocol::Frame::copy_of({cursor, rx_size_}));
            rx_buf_pos_ += rx_size_;
        } else {
            // Payload split across reads (or mid-frame resume): stage it.
            // Grow-only: within the retained capacity this is free, so the
            // staging buffer stops allocating once it has seen the
            // connection's largest frame.
            if (rx_payload_.size() < rx_size_) rx_payload_.resize(rx_size_);
            const std::size_t take = std::min<std::size_t>(rx_size_ - rx_payload_have_, avail);
            std::memcpy(rx_payload_.data() + rx_payload_have_, cursor, take);
            rx_payload_have_ += take;
            rx_buf_pos_ += take;
            if (rx_payload_have_ < rx_size_) continue;  // resume after refill
            deliver_inbound(protocol::Frame::copy_of({rx_payload_.data(), rx_size_}));
            if (rx_payload_.size() > kRxKeepBytes) {
                rx_payload_.clear();
                rx_payload_.shrink_to_fit();
            }
        }
        rx_in_payload_ = false;
        rx_header_have_ = 0;
        ++frames;
    }
    // Frame cap hit with the socket (or the bounce buffer) possibly still
    // holding data: the shard carries the readiness (attention list) instead
    // of relying on the poller to re-report it.
    return true;
}

void TcpChannel::deliver_inbound(protocol::Frame frame) {
    if (!connected_.load(std::memory_order_acquire)) return;  // closing: drain and discard
    // Reactor-delivery dispatch holds mu_ so it cannot interleave with the
    // buffered-frame drain inside enable_reactor_delivery(): frame order is
    // preserved across the mode switch.
    {
        const MutexLock lock{mu_};
        if (reactor_delivery_) {
            frames_received_.inc();
            bytes_received_.inc(frame.size());
            if (receive_) receive_(frame);
            return;
        }
        inbox_.push_back(std::move(frame));
    }
    inbox_cv_.notify_all();  // poll_blocking waiters
}

CO_COLD_PATH void TcpChannel::fail_read_side() {
    read_open_ = false;
    {
        // Taken so a kBlock sender between its predicate check and its wait
        // cannot miss the peer_gone_ wakeup.
        const MutexLock lock{out_mu_};
        peer_gone_.store(true, std::memory_order_release);
    }
    space_cv_.notify_all();
    {
        // Same pattern for poll_blocking waiters parked on the inbox.
        const MutexLock lock{mu_};
    }
    inbox_cv_.notify_all();
}

bool TcpChannel::service_write() {
    FlushFx fx;
    bool more = false;
    {
        const MutexLock lock{out_mu_};
        if (wr_shut_) return false;
        // A corked channel's queued frames are its SendCork's to flush, at
        // the end of the owner's batch: a shard visit that came to read
        // leaves them, so each frame has one path out and the shard spends
        // its time on the recvs it alone does. Leftovers of an earlier
        // gather (wr_batch_) and a closing channel stay the shard's.
        if (corked_ && wr_batch_.empty() && !draining_.load(std::memory_order_acquire)) {
            return false;
        }
        if (draining_.load(std::memory_order_acquire)) {
            const bool expired = std::chrono::steady_clock::now() >= drain_deadline_;
            const bool done = wr_batch_.empty() && outbox_.empty();
            if (expired && !done) {
                // The drain budget ran out on a peer that stopped reading:
                // remaining queued frames are dropped, and the owner learns
                // through the (poll-reported) close.
                if (fail_write_side_locked()) fx.failed = true;
            }
        }
        if (!fx.failed) more = flush_locked(kFlushRoundsPerVisit, fx);
    }
    dispatch_flush_fx(fx);
    return more;
}

CO_HOT_PATH bool TcpChannel::flush_locked(int rounds, FlushFx& fx) {
    for (int round = 0; round < rounds; ++round) {
        if (wr_shut_) return false;
        // Refill: pop as many frames as the batch takes. Bytes leave the
        // queue accounting at pop (as they always have); the batch's byte
        // cap bounds how far that accounting can run ahead of the kernel.
        if (!wr_batch_.full()) {
            bool popped = false;
            while (!wr_batch_.full() && !outbox_.empty()) {
                protocol::Frame frame = std::move(outbox_.front());
                outbox_.pop_front();
                outbox_bytes_ -= frame.size();
                wr_batch_.push(std::move(frame));
                popped = true;
            }
            if (popped) {
                fx.notify_space = true;
                if (congested_ && outbox_bytes_ <= send_opts_.high_watermark / 2) {
                    congested_ = false;
                    fx.decongested = true;
                    fx.queued = outbox_bytes_;
                    fx.bp = backpressure_;
                }
            }
            if (wr_batch_.empty() && outbox_.empty() &&
                draining_.load(std::memory_order_acquire) && !flush_complete_) {
                // Everything accepted has been flushed; tell the peer we are
                // done and retire the write side.
                ::shutdown(fd_, SHUT_WR);
                wr_shut_ = true;
                flush_complete_ = true;
                fx.shut = true;
                return false;
            }
        }
        if (wr_batch_.empty()) return false;  // idle: nothing queued

        // Flush: the whole unwritten remainder as one gathered sendmsg.
        // Nonblocking syscall under out_mu_ — the lock is what keeps a
        // caller-side inline flush and a shard flush from interleaving
        // bytes on the wire.
        struct iovec iov[WritevBatch::kMaxIovecs];
        msghdr mh{};
        mh.msg_iov = iov;
        mh.msg_iovlen = wr_batch_.gather(iov);
        const ssize_t w = ::sendmsg(fd_, &mh, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w < 0) {
            if (errno == EINTR) continue;  // retry the same gather
            if (errno == EAGAIN || errno == EWOULDBLOCK) return false;  // resume on the next edge
            if (fail_write_side_locked()) fx.failed = true;
            return false;
        }
        const auto written = static_cast<std::size_t>(w);
        const std::size_t completed = wr_batch_.advance(written);
        if (shard_counters_ != nullptr) {
            shard_counters_->flush_syscalls.inc();
            shard_counters_->frames_flushed.inc(completed);
            shard_counters_->bytes_flushed.inc(written);
        }
        if (completed > 0) {
            // One flight-recorder event per completed flush round (not per
            // frame): enough to reconstruct per-connection output cadence
            // from an incident file at negligible hot-path cost.
            obs::FlightRecorder::instance().record(obs::EventKind::kFrameOut,
                                                   static_cast<std::uint64_t>(fd_), completed);
        }
    }
    // Per-round budget spent. More to write? The shard resumes via the
    // attention list instead of starving its other channels.
    return !wr_batch_.empty() || !outbox_.empty();
}

void TcpChannel::dispatch_flush_fx(const FlushFx& fx) {
    if (fx.notify_space) space_cv_.notify_all();
    if (fx.decongested && fx.bp) fx.bp(false, fx.queued);
    if (fx.shut) flushed_cv_.notify_all();
    if (fx.failed) notify_write_failure();
}

CO_COLD_PATH bool TcpChannel::fail_write_side_locked() {
    if (wr_shut_ && flush_complete_) return false;  // already retired
    wr_shut_ = true;
    wr_batch_.clear();
    ::shutdown(fd_, SHUT_RDWR);
    outbox_.clear();
    outbox_bytes_ = 0;
    flush_complete_ = true;
    peer_gone_.store(true, std::memory_order_release);
    return true;
}

CO_COLD_PATH void TcpChannel::notify_write_failure() {
    space_cv_.notify_all();
    flushed_cv_.notify_all();
    {
        const MutexLock lock{mu_};
    }
    inbox_cv_.notify_all();  // poll_blocking waiters observe peer_gone_
}

CO_COLD_PATH void TcpChannel::fail_write_side() {
    bool retired;
    {
        const MutexLock lock{out_mu_};
        retired = fail_write_side_locked();
    }
    if (retired) notify_write_failure();
}

void TcpChannel::report_close_from_reactor() {
    bool down;
    CloseHandler handler;
    {
        const MutexLock lock{mu_};
        if (!reactor_delivery_) return;
        down = (peer_gone_.load(std::memory_order_acquire) ||
                !connected_.load(std::memory_order_acquire)) &&
               inbox_.empty();
        if (down) handler = close_handler_;
    }
    if (!down) return;
    bool expected = false;
    if (close_reported_.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
        if (handler) handler();
    }
}

// --------------------------------------------------------------------------
// Owner-facing surface.

CO_HOT_PATH Status TcpChannel::send(protocol::Frame frame) {
    CO_HOT_SCOPE("net.tcp.send");
    if (!connected()) return Status{ErrorCode::kTransport, "channel closed"};
    const std::size_t size = frame.size();
    bool onset = false;
    bool kick = false;
    std::size_t queued = 0;
    BackpressureHandler bp;
    FlushFx fx;
    {
        MutexLock lock{out_mu_};
        // A lone frame larger than the whole cap is still accepted when the
        // queue is empty: the bound must not make oversized frames unsendable.
        if (outbox_bytes_ + size > send_opts_.max_bytes && !outbox_.empty()) {
            if (send_opts_.overflow == OverflowPolicy::kDisconnect) {
                backpressure_events_.inc();
                queued = outbox_bytes_;
                bp = backpressure_;
                lock.unlock();
                if (bp) bp(true, queued);
                abort_close();
                return Status{ErrorCode::kTransport, "outbound queue overflow"};
            }
            // kBlock: the caller absorbs the backpressure until the reactor
            // frees space (or the channel dies under us). A corked channel
            // is handed to its shard first: the cork that holds it may be
            // this very caller's, whose flush cannot run while it waits.
            if (corked_) {
                corked_ = false;
                lock.unlock();
                reactor_->kick(this);
                lock.lock();
            }
            // Explicit wait loop: the thread-safety analysis does not carry
            // the held capability into lambda bodies.
            while (!(outbox_bytes_ + size <= send_opts_.max_bytes || outbox_.empty() ||
                     !connected_.load(std::memory_order_acquire) ||
                     peer_gone_.load(std::memory_order_acquire) ||
                     abort_.load(std::memory_order_acquire))) {
                lock.wait(space_cv_);
            }
            if (!connected_.load(std::memory_order_acquire) ||
                abort_.load(std::memory_order_acquire)) {
                return Status{ErrorCode::kTransport, "channel closed"};
            }
            if (peer_gone_.load(std::memory_order_acquire)) {
                return Status{ErrorCode::kTransport, "peer gone"};
            }
        }
        const bool was_idle = outbox_.empty();
        kick = was_idle;  // unless a flush below settles it
        outbox_.push_back(std::move(frame));
        outbox_bytes_ += size;
        frames_sent_.inc();
        bytes_sent_.inc(size);
        send_queue_peak_bytes_.update_max(outbox_bytes_);
        if (!congested_ && outbox_bytes_ > send_opts_.high_watermark) {
            congested_ = true;
            backpressure_events_.inc();
            onset = true;
            queued = outbox_bytes_;
            bp = backpressure_;
        }
        if (!wr_shut_ && !draining_.load(std::memory_order_acquire)) {
            // Corked: the idle→non-empty edge enrolls the channel in the
            // caller's armed SendCork, which flushes it once at the end of
            // the caller's batch; later sends in the batch only enqueue.
            if (was_idle && !corked_) corked_ = SendCork::enroll(*this);
            // Inline fast path: an idle, uncorked channel flushes from the
            // caller thread right now — one gathered sendmsg, no kick, no
            // shard wakeup, no cross-thread latency. A corked channel does
            // the same when this send fills a whole gather (the size bound:
            // a batch of big frames must not creep toward max_bytes). The
            // shard takes over only when the socket pushes back (EAGAIN
            // leaves bytes batched) or frames were already in flight. A
            // single round: a caller that can't drain everything in one
            // syscall should hand off, not monopolize out_mu_.
            const bool gather_filled = outbox_bytes_ >= WritevBatch::kMaxBytes &&
                                       outbox_bytes_ - size < WritevBatch::kMaxBytes;
            if (corked_ ? gather_filled : was_idle) {
                (void)flush_locked(1, fx);
                kick = !wr_batch_.empty() || !outbox_.empty();
            } else if (corked_) {
                kick = false;  // the cork owes this channel its flush
            }
        }
    }
    dispatch_flush_fx(fx);
    // Only the empty→nonempty edge needs a wakeup — and it is *targeted*:
    // the kick names this channel, so only the owning shard wakes and it
    // services exactly this fd instead of rescanning its whole set. (With
    // frames already queued the shard is mid-drain, or a cork will flush
    // them, and needs no nudge; with an inline flush that drained
    // everything there is nothing to wake for.)
    if (kick) reactor_->kick(this);
    if (onset && bp) bp(true, queued);
    return Status::ok();
}

void TcpChannel::flush_corked() {
    FlushFx fx;
    bool kick = false;
    {
        const MutexLock lock{out_mu_};
        corked_ = false;
        // A closing channel is the shard's to drain (close() kicked it).
        if (!wr_shut_ && !draining_.load(std::memory_order_acquire)) {
            (void)flush_locked(1, fx);
            kick = !wr_batch_.empty() || !outbox_.empty();
        }
    }
    dispatch_flush_fx(fx);
    if (kick) reactor_->kick(this);
}

// --------------------------------------------------------------------------
// Send cork.

namespace {
/// The cork armed on this thread. A plain pointer (constant-initialized, no
/// TLS constructor or destructor): the cork's storage lives in the SendCork
/// object on its owner's stack.
thread_local SendCork* t_armed_cork = nullptr;
}  // namespace

SendCork::SendCork(bool arm) noexcept {
    if (arm && t_armed_cork == nullptr) {
        t_armed_cork = this;
        armed_ = true;
    }
}

SendCork::~SendCork() {
    flush();
    if (armed_) t_armed_cork = nullptr;
}

SendCork* SendCork::active() noexcept { return t_armed_cork; }

bool SendCork::enroll(TcpChannel& channel) {
    SendCork* cork = t_armed_cork;
    if (cork == nullptr || cork->count_ == kMaxChannels) return false;
    std::shared_ptr<TcpChannel> self = channel.weak_from_this().lock();
    if (!self) return false;  // not shared-owned (or being destroyed): flush inline
    if (cork->count_ == 0) cork->oldest_ = std::chrono::steady_clock::now();
    cork->channels_[cork->count_++] = std::move(self);
    return true;
}

CO_HOT_PATH void SendCork::flush() {
    CO_HOT_SCOPE("net.tcp.cork_flush");
    // Index loop with a live bound: a backpressure callback fired by one
    // channel's flush may send, enrolling another channel behind it.
    for (std::size_t i = 0; i < count_; ++i) {
        channels_[i]->flush_corked();
        channels_[i].reset();
    }
    count_ = 0;
}

void SendCork::flush_if_due() {
    if (count_ != 0 && std::chrono::steady_clock::now() - oldest_ >= kMaxDelay) flush();
}

std::size_t TcpChannel::outbound_queued_frames() const {
    const MutexLock lock{out_mu_};
    return outbox_.size();
}

std::size_t TcpChannel::outbound_queued_bytes() const {
    const MutexLock lock{out_mu_};
    return outbox_bytes_;
}

std::size_t TcpChannel::poll() {
    RingQueue<protocol::Frame> batch;
    ReceiveHandler receive;
    {
        const MutexLock lock{mu_};
        batch.swap(inbox_);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            frames_received_.inc();
            bytes_received_.inc(batch[i].size());
        }
        receive = receive_;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (receive) receive(batch[i]);
    }
    // A locally closed channel reports closure the same way a vanished peer
    // does: once every already-received frame has been dispatched.
    if ((peer_gone_.load(std::memory_order_acquire) ||
         !connected_.load(std::memory_order_acquire)) &&
        batch.empty()) {
        // peer_gone_ is set after the reactor's final enqueue, so once it is
        // visible the inbox can only shrink: an empty inbox here means every
        // frame has been dispatched and the close may be reported.
        bool drained;
        CloseHandler close_handler;
        {
            const MutexLock lock{mu_};
            drained = inbox_.empty();
            close_handler = close_handler_;
        }
        bool expected = false;
        if (drained && close_reported_.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
            if (close_handler) close_handler();
        }
    }
    return batch.size();
}

std::size_t TcpChannel::poll_blocking(int timeout_ms) {
    using Clock = std::chrono::steady_clock;
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (true) {
        const std::size_t n = poll();
        if (n > 0 || peer_gone_.load(std::memory_order_acquire) ||
            !connected_.load(std::memory_order_acquire)) {
            return n;
        }
        const auto now = Clock::now();
        if (now >= deadline) return 0;
        // Park on the inbox cv (deliver_inbound/fail paths notify) instead
        // of the spin-sleep this used to be: wakeup is latency-free and the
        // readiness wait itself lives in the reactor's Poller backend, not a
        // second ad-hoc poll on the same fd. Explicit re-check loop: the
        // thread-safety analysis does not enter predicate lambdas.
        MutexLock lock{mu_};
        while (inbox_.empty() && !peer_gone_.load(std::memory_order_acquire) &&
               connected_.load(std::memory_order_acquire)) {
            if (!lock.wait_for(inbox_cv_, deadline - Clock::now())) break;
        }
    }
}

void TcpChannel::enable_reactor_delivery() {
    const MutexLock lock{mu_};
    reactor_delivery_ = true;
    // Frames that raced in before the switch drain here, under mu_, so the
    // reactor (blocked on mu_ in deliver_inbound) cannot reorder around them.
    while (!inbox_.empty()) {
        protocol::Frame frame = std::move(inbox_.front());
        inbox_.pop_front();
        frames_received_.inc();
        bytes_received_.inc(frame.size());
        if (receive_) receive_(frame);
    }
}

void TcpChannel::close() {
    if (connected_.exchange(false, std::memory_order_acq_rel)) {
        // Outbound drains: the reactor flushes already-accepted frames within
        // the drain budget, then completes the shutdown with SHUT_WR. The
        // read side keeps consuming (discarding) inbound bytes meanwhile —
        // see the header comment — and stops at the peer's FIN or when the
        // destructor deregisters the fd after the flush settles.
        {
            const MutexLock lock{out_mu_};
            drain_deadline_ = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(send_opts_.drain_timeout_ms);
        }
        draining_.store(true, std::memory_order_release);
        space_cv_.notify_all();
        inbox_cv_.notify_all();
        reactor_->kick(this);
    }
}

CO_COLD_PATH void TcpChannel::abort_close() {
    abort_.store(true, std::memory_order_release);
    connected_.store(false, std::memory_order_release);
    // shutdown (not close) is safe while the reactor polls the fd: the fd
    // number stays valid until the destructor's deregistration.
    ::shutdown(fd_, SHUT_RDWR);
    space_cv_.notify_all();
    inbox_cv_.notify_all();
    reactor_->kick(this);
}

// --------------------------------------------------------------------------
// Listener / connect.

Result<std::unique_ptr<TcpListener>> TcpListener::create(std::uint16_t port,
                                                         ListenOptions options) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Error{ErrorCode::kTransport, std::strerror(errno)};
    if (options.reuse_addr) {
        int one = 1;
        if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) < 0) {
            const Error err{ErrorCode::kTransport,
                            std::string{"SO_REUSEADDR: "} + std::strerror(errno)};
            ::close(fd);
            return err;
        }
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(fd, options.backlog) < 0) {
        const Error err{ErrorCode::kTransport, std::strerror(errno)};
        ::close(fd);
        return err;
    }
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
        const Error err{ErrorCode::kTransport, std::strerror(errno)};
        ::close(fd);
        return err;
    }
    return std::unique_ptr<TcpListener>(
        new TcpListener(fd, ntohs(addr.sin_port), std::move(options)));
}

TcpListener::~TcpListener() {
    stop_async();
    ::close(fd_);
}

std::shared_ptr<Reactor> TcpListener::resolved_reactor() const {
    if (options_.thread_per_connection) return Reactor::create();
    return options_.reactor ? options_.reactor : Reactor::shared();
}

Result<std::shared_ptr<TcpChannel>> TcpListener::accept(int timeout_ms) {
    // Readiness through the same Poller backend the reactor multiplexes
    // with (listener mode: level-triggered, so one accept per call is
    // re-reported while the backlog is non-empty), not a private ::poll.
    if (!accept_poller_) {
        accept_poller_ = Poller::make(PollerBackend::kAuto);
        accept_poller_->add(fd_, POLLIN, /*listener=*/true);
    }
    std::vector<Poller::Event> events;
    const std::size_t ready = accept_poller_->wait(events, timeout_ms);
    if (ready == 0) return Error{ErrorCode::kTransport, "accept timeout"};
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) return Error{ErrorCode::kTransport, std::strerror(errno)};
    return std::shared_ptr<TcpChannel>(new TcpChannel(conn, resolved_reactor()));
}

Status TcpListener::start_async(AcceptHandler handler) {
    if (async_reactor_) return Status{ErrorCode::kInvalidArgument, "async accept already started"};
    if (options_.thread_per_connection) {
        return Status{ErrorCode::kInvalidArgument,
                      "async accept is incompatible with thread_per_connection"};
    }
    if (!handler) return Status{ErrorCode::kInvalidArgument, "accept handler required"};
    // The shard loop must never block in ::accept; readiness can be shared
    // across shards (EPOLLEXCLUSIVE) and another shard may win the race.
    set_nonblocking(fd_);
    async_handler_ = std::move(handler);
    async_reactor_ = options_.reactor ? options_.reactor : Reactor::shared();
    async_reactor_->add_listener(fd_, [this] { accept_ready(); });
    return Status::ok();
}

void TcpListener::stop_async() {
    if (!async_reactor_) return;
    // Blocking handshake: after this returns no shard will enter
    // accept_ready() again, so the handler (and this listener) can die.
    async_reactor_->remove_listener(fd_);
    async_reactor_.reset();
    async_handler_ = nullptr;
}

void TcpListener::accept_ready() {
    // Drain the backlog: with EPOLLEXCLUSIVE each pending connection wakes
    // one shard, but coalesced wakeups can leave more than one accept
    // available to whoever got here first.
    for (;;) {
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn < 0) {
            // EAGAIN: another shard won the race or the backlog is empty.
            // Anything else is transient (ECONNABORTED et al.) — the next
            // readiness event retries.
            return;
        }
        async_handler_(std::shared_ptr<TcpChannel>(new TcpChannel(conn, async_reactor_)));
    }
}

Result<std::shared_ptr<TcpChannel>> tcp_connect(const std::string& host, std::uint16_t port,
                                                std::shared_ptr<Reactor> reactor) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Error{ErrorCode::kTransport, std::strerror(errno)};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return Error{ErrorCode::kInvalidArgument, "bad host: " + host};
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
        const Error err{ErrorCode::kTransport, std::strerror(errno)};
        ::close(fd);
        return err;
    }
    if (!reactor) reactor = Reactor::shared();
    return std::shared_ptr<TcpChannel>(new TcpChannel(fd, std::move(reactor)));
}

}  // namespace cosoft::net

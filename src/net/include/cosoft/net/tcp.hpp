// Localhost TCP transport: the same Channel interface as SimNetwork pipes,
// over real sockets. Frames are length-prefixed (4-byte little-endian size).
//
// Threading model: all socket I/O for a TcpChannel runs on the reactor
// shard its fd hashes to (epoll or poll(2) behind net::Poller — see
// reactor.hpp), so the transport costs O(shards) threads no matter how many
// connections exist, instead of the reader+writer pair per connection it
// used to spend. The shard enqueues complete inbound frames and drains the
// bounded outbound queue with gathered sendmsg flushes (one syscall per
// batch of frames, not per frame); the owner calls poll() to dispatch inbound
// frames on its own thread, so all COSOFT logic stays single-threaded
// exactly as with SimNetwork. send() only enqueues (sharing the Frame's
// refcounted payload) and never blocks on the socket, so one stalled peer
// cannot stall the sender's dispatch loop — the queue absorbs the skew and
// backpressure makes it visible:
//
//  - Crossing `high_watermark` queued bytes fires the backpressure handler
//    with congested=true (once per onset; again with congested=false when
//    the reactor drains below half the watermark).
//  - A send that would exceed `max_bytes` either blocks until the reactor
//    frees space (OverflowPolicy::kBlock, the SimNetwork-like default) or
//    fails the send and closes the channel (kDisconnect, fail-fast for
//    servers that must not wait on a dead peer).
//
// Thread safety (verified by test_tcp_stress and test_backpressure under the
// tsan preset): send(), poll()/poll_blocking(), and close() may each be
// called from different threads concurrently; the reactor serializes frames
// on the wire, and the socket fd stays open until the destructor so a racing
// close() never yanks it from under the reactor. Handlers (receive/close/
// backpressure) and configure_send_queue() must be installed before
// concurrent use begins, and the destructor must not race other calls on the
// same object. The backpressure handler runs on whichever thread detects the
// edge: the sending thread (onset, overflow) or the reactor thread (drain) —
// so it must never block on reactor-driven progress.
//
// Reactor delivery (enable_reactor_delivery): servers that shard dispatch
// themselves (SessionManager) can opt a channel out of the poll() model and
// have the receive handler invoked directly on the reactor thread as frames
// complete. The handler must be cheap (enqueue-and-schedule); the close
// handler then also fires on the reactor thread. poll()/poll_blocking() must
// not be used on a channel in this mode.
//
// Send cork (SendCork): a thread that sends many frames in one unit of work
// — a SessionManager worker running a strand batch — arms a cork, and its
// sends on idle channels then only enqueue. The cork flushes every channel
// it holds once, so a batch's frames to one peer leave in one gathered
// sendmsg instead of one syscall per frame. Outside an armed cork, send()
// flushes an idle channel inline, as before.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cosoft/common/ring_queue.hpp"
#include "cosoft/common/thread_annotations.hpp"
#include "cosoft/net/channel.hpp"
#include "cosoft/net/iovec_batch.hpp"
#include "cosoft/net/poller.hpp"
#include "cosoft/net/reactor.hpp"

namespace cosoft::net {

/// What send() does when the outbound queue is at `max_bytes`.
enum class OverflowPolicy : std::uint8_t {
    kBlock,       ///< wait for the reactor to free space (backpressure propagates to the caller)
    kDisconnect,  ///< fail the send and close the channel (fail-fast)
};

struct SendQueueOptions {
    std::size_t max_bytes = 8U << 20;       ///< hard cap on queued payload bytes
    std::size_t high_watermark = 2U << 20;  ///< backpressure-signal threshold
    OverflowPolicy overflow = OverflowPolicy::kBlock;
    /// On close(), how long the reactor may keep flushing already-accepted
    /// frames to a peer that is slow to read before giving up.
    int drain_timeout_ms = 5000;
};

class TcpChannel;

/// Batches the calling thread's TcpChannel flushes for the span of one unit
/// of work. While a cork is armed on a thread, a send() from that thread
/// that finds its channel idle enrolls the channel here instead of flushing
/// inline; later sends to an enrolled channel only enqueue. flush() then
/// drains each enrolled channel with one round of the channel's own gathered
/// flush (a single sendmsg), handing any remainder to the channel's reactor
/// shard exactly as an inline flush does. Corked frames leave only that
/// way: the shard does not write an enrolled channel's queue when it visits
/// to read, and a kBlock sender that must wait for space un-corks the
/// channel and hands it to the shard.
///
/// Two bounds keep a cork from hoarding frames:
///  - Delay: the owner calls flush_if_due() between work items, which
///    flushes once the oldest enrolled frame has waited kMaxDelay.
///  - Size: a corked channel whose queued bytes reach WritevBatch::kMaxBytes
///    (a full gather) flushes inline at once.
///
/// A cork holds at most kMaxChannels channels (by strong reference, so an
/// enrolled channel outlives a concurrent release by its owner); a channel
/// that finds the cork full flushes inline. The storage is fixed: arming,
/// enrolling and flushing allocate nothing. Only the thread that constructed
/// a cork may use it. The destructor flushes what is still enrolled, so no
/// frame is ever stranded, but owners should flush() first wherever a flush
/// may not run under their own locks (it can destroy a channel whose last
/// reference the cork held).
class SendCork {
  public:
    /// Channels one cork can hold before further ones flush inline.
    static constexpr std::size_t kMaxChannels = 64;
    /// flush_if_due() threshold: about three strand handler times when a
    /// session runs coupled emits. Long enough for the frames of a few
    /// consecutive tokens to share a sendmsg, short against the ~300 µs a
    /// coupled command takes end to end. A 10 µs bound flushed at nearly
    /// every token and lost the batching.
    static constexpr std::chrono::microseconds kMaxDelay{30};

    /// Arms this cork on the calling thread. Inert (every call a no-op, and
    /// sends flush inline) when `arm` is false or the thread already has an
    /// armed cork.
    explicit SendCork(bool arm = true) noexcept;
    ~SendCork();
    SendCork(const SendCork&) = delete;
    SendCork& operator=(const SendCork&) = delete;

    /// The cork armed on the calling thread, or nullptr.
    [[nodiscard]] static SendCork* active() noexcept;

    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    /// Flushes every enrolled channel (one gathered sendmsg each) and
    /// releases them.
    void flush();
    /// flush() if the oldest enrolled frame has waited at least kMaxDelay.
    void flush_if_due();

  private:
    friend class TcpChannel;
    /// Called by TcpChannel::send under the channel's out_mu_. Returns false
    /// when the calling thread has no armed cork or this one is full.
    static bool enroll(TcpChannel& channel);

    std::shared_ptr<TcpChannel> channels_[kMaxChannels];
    std::size_t count_ = 0;
    std::chrono::steady_clock::time_point oldest_{};
    bool armed_ = false;
};

class TcpChannel final : public Channel, public std::enable_shared_from_this<TcpChannel> {
  public:
    /// congested=true when queued bytes cross the high watermark (or a
    /// kDisconnect overflow fires), false when the reactor drains below half
    /// of it. `queued_bytes` is the occupancy at the edge.
    using BackpressureHandler = std::function<void(bool congested, std::size_t queued_bytes)>;

    ~TcpChannel() override;

    Status send(protocol::Frame frame) override;
    void on_receive(ReceiveHandler handler) override;
    void on_close(CloseHandler handler) override;
    [[nodiscard]] bool connected() const override { return connected_.load(std::memory_order_acquire); }

    /// Stops accepting sends, lets the reactor flush already-accepted frames
    /// (bounded by SendQueueOptions::drain_timeout_ms), then completes the
    /// shutdown with a FIN. Never blocks the caller. While draining, the
    /// reactor keeps consuming (and discarding) inbound bytes — letting them
    /// rot in the kernel buffer closes our receive window and can wedge the
    /// whole connection, flush included, behind the peer's retransmit
    /// backoff.
    void close() override;

    void configure_send_queue(const SendQueueOptions& opts);
    void on_backpressure(BackpressureHandler handler);

    [[nodiscard]] std::size_t outbound_queued_frames() const override;
    [[nodiscard]] std::size_t outbound_queued_bytes() const override;

    /// Dispatches all queued inbound frames to the receive handler on the
    /// calling thread. Returns the number of frames dispatched. Also fires
    /// the close handler (once) if the peer has gone away.
    std::size_t poll();

    /// Blocks until at least one frame has been dispatched or `timeout_ms`
    /// elapsed. Returns the number of frames dispatched.
    std::size_t poll_blocking(int timeout_ms);

    /// Switches the channel to reactor delivery: the receive handler runs on
    /// the reactor thread per completed frame (frames already buffered are
    /// dispatched first, in order, on the calling thread), and the close
    /// handler fires on the reactor thread once the peer is gone. Install
    /// both handlers before calling this; do not use poll() afterwards.
    void enable_reactor_delivery();

    /// The reactor whose loop thread owns this channel's socket I/O.
    [[nodiscard]] const std::shared_ptr<Reactor>& reactor() const noexcept { return reactor_; }

  private:
    friend class Reactor;
    friend class SendCork;
    friend class TcpListener;
    friend Result<std::shared_ptr<TcpChannel>> tcp_connect(const std::string&, std::uint16_t,
                                                           std::shared_ptr<Reactor>);

    TcpChannel(int fd, std::shared_ptr<Reactor> reactor);

    // --- Reactor-facing surface (owning shard's loop thread only) ---------
    [[nodiscard]] int fd() const noexcept { return fd_; }
    /// Poll events the loop should watch this fd for (POLLIN while the read
    /// side is open, POLLOUT while a write is pending). Level-triggered
    /// backends only; the edge-triggered backend watches both for good.
    [[nodiscard]] short poll_interest();

    /// What one service() visit left behind, for the shard's bookkeeping.
    struct ServiceOutcome {
        /// Readiness consciously left unconsumed (per-visit fairness caps):
        /// the shard carries it and revisits with a zero timeout — required
        /// under edge-triggered polling, where the edge won't re-report.
        short again = 0;
        /// close() drain in progress: the shard must keep ticking this
        /// channel so the drain deadline is enforced.
        bool timed = false;
    };

    /// One reactor visit: reads while data is available, advances the
    /// batched outbound flush, and enforces the drain deadline.
    ServiceOutcome service(short revents);

    /// Reads until EAGAIN/EOF or the per-visit frame cap. Returns true when
    /// the cap was hit with the socket possibly still readable.
    bool handle_readable(bool hup);
    /// Inbound read side is finished (EOF, error, oversized frame, abort).
    void fail_read_side();
    /// Batched flush: refills wr_batch_ from the outbox and drains it with
    /// gathered sendmsg calls. Returns true when the per-visit byte budget
    /// was spent with more queued — the shard revisits without waiting for
    /// another readiness edge.
    bool service_write();
    /// Side effects a flush produces that must fire *outside* out_mu_
    /// (condition-variable notifies and the user's backpressure callback).
    struct FlushFx {
        bool notify_space = false;  ///< frames left the outbox
        bool decongested = false;   ///< queue fell below half the watermark
        bool shut = false;          ///< drain completed: SHUT_WR sent
        bool failed = false;        ///< dead link: write side was failed
        std::size_t queued = 0;
        BackpressureHandler bp;
    };
    /// The flush core, shared by the shard's service_write() and the inline
    /// fast path in send(): up to `rounds` refill+sendmsg cycles. Returns
    /// true when the round budget was spent with more still queued. Both the
    /// batch and the fd write are serialized by out_mu_ — a caller-side
    /// inline flush can never interleave bytes with a shard flush.
    bool flush_locked(int rounds, FlushFx& fx) CO_REQUIRES(out_mu_);
    /// Fires the notifications a flush_locked() call accumulated.
    void dispatch_flush_fx(const FlushFx& fx);
    /// SendCork::flush() for one enrolled channel: leaves the cork and runs
    /// the same one-round flush an inline send would have.
    void flush_corked();
    /// Write side is finished without flushing (dead link, drain-deadline
    /// give-up, abort): drops queued frames and releases dtor/sender waits.
    void fail_write_side();
    /// State half of fail_write_side(); idempotent. Returns true when it
    /// actually retired the write side (caller owes notify_write_failure()).
    bool fail_write_side_locked() CO_REQUIRES(out_mu_);
    /// Notification half of fail_write_side(); must run without out_mu_.
    void notify_write_failure();
    /// Hands one complete inbound frame to the inbox or, in reactor
    /// delivery, straight to the receive handler.
    void deliver_inbound(protocol::Frame frame);
    /// In reactor delivery, reports the close from the loop thread once the
    /// channel is down (same once-only contract as poll()).
    void report_close_from_reactor();
    /// Immediate teardown (overflow kDisconnect): drops queued frames.
    void abort_close();

    int fd_;
    std::shared_ptr<Reactor> reactor_;
    std::atomic<bool> connected_{true};
    std::atomic<bool> peer_gone_{false};
    std::atomic<bool> close_reported_{false};
    /// kDisconnect overflow: tear everything down at the next reactor visit.
    std::atomic<bool> abort_{false};

    co::Mutex mu_{"net.TcpChannel.inbox"};  ///< guards the receive side
    std::condition_variable inbox_cv_;      ///< poll_blocking waiters (new frame / peer gone)
    // RingQueue, not std::deque: a deque pays a node allocation every few
    // pushes, which made each enqueue a hot-path allocation. The ring grows
    // to the working depth once and then recycles its slots.
    RingQueue<protocol::Frame> inbox_ CO_GUARDED_BY(mu_);
    bool reactor_delivery_ CO_GUARDED_BY(mu_) = false;
    // Handlers are mu_-guarded so a (contractually discouraged) late install
    // cannot tear a std::function read; dispatch paths copy under mu_ and
    // invoke the copy outside it (except deliver_inbound, which documents
    // holding mu_ across the reactor-delivery callback for frame ordering).
    ReceiveHandler receive_ CO_GUARDED_BY(mu_);
    CloseHandler close_handler_ CO_GUARDED_BY(mu_);

    // Inbound parse state: reactor thread only (service() asserts this in
    // thread-checked builds). rx_buf_ is the bulk-read bounce buffer — one
    // recv refills it and whole frames parse straight out of it; rx_payload_
    // is the *reused* staging vector for frames that split across reads
    // (and the direct-recv target for payloads larger than the bounce
    // buffer). Both only ever grow (until an oversized outlier sheds the
    // staging vector), so a steady-state receive allocates once per frame —
    // the Frame's single shared allocation — and nothing else.
    bool read_open_ = true;
    // Latched hangup hint. A FIN can share an edge-triggered wakeup with the
    // final burst of data; if the frames-per-visit cap defers the rest of
    // that burst to the attention list, the re-service visit arrives with
    // POLLIN only — the HUP bit must survive across visits or the EOF read
    // is skipped and never re-edges.
    bool rx_hup_seen_ = false;
    bool rx_in_payload_ = false;
    std::uint8_t rx_header_[4] = {};
    std::size_t rx_header_have_ = 0;
    std::uint32_t rx_size_ = 0;
    std::vector<std::uint8_t> rx_buf_;
    std::size_t rx_buf_pos_ = 0;
    std::size_t rx_buf_len_ = 0;
    std::vector<std::uint8_t> rx_payload_;
    std::size_t rx_payload_have_ = 0;

    // Send queue configuration is out_mu_-guarded: configure_send_queue()
    // used to write it unsynchronized against reactor reads (high_watermark
    // in service_write, drain_timeout_ms in close) — a real guarded-state
    // escape the thread-safety migration surfaced.
    SendQueueOptions send_opts_ CO_GUARDED_BY(out_mu_);
    BackpressureHandler backpressure_ CO_GUARDED_BY(out_mu_);
    mutable co::Mutex out_mu_{"net.TcpChannel.out"};  ///< guards the send side
    std::condition_variable space_cv_;    ///< kBlock senders wait for queue space
    std::condition_variable flushed_cv_;  ///< destructor waits for the outbound flush to settle
    RingQueue<protocol::Frame> outbox_ CO_GUARDED_BY(out_mu_);
    std::size_t outbox_bytes_ CO_GUARDED_BY(out_mu_) = 0;
    bool congested_ CO_GUARDED_BY(out_mu_) = false;
    /// The write side has reached its final state (drained + SHUT_WR, dead
    /// link, deadline give-up, or abort); the destructor may proceed.
    bool flush_complete_ CO_GUARDED_BY(out_mu_) = false;
    /// close() requested: flush, then shut down. Atomic so poll_interest()
    /// and service() can check it without out_mu_; the deadline itself is
    /// out_mu_-guarded (it used to ride a fragile release/acquire
    /// side-channel on this flag).
    std::atomic<bool> draining_{false};
    std::chrono::steady_clock::time_point drain_deadline_ CO_GUARDED_BY(out_mu_){};

    // Outbound write state, out_mu_-guarded: frames pop from outbox_ into
    // wr_batch_ (bounded — see WritevBatch::kMaxBytes for the
    // accounting-slack cap) and flush as one gathered sendmsg per syscall,
    // resuming across short writes. Under out_mu_ (not shard-confined like
    // the read side) because send() flushes inline from the caller thread
    // when the channel is idle — or a SendCork flushes it from the caller
    // thread at the end of the caller's batch — so the common low-latency
    // case skips the kick → shard-wakeup → flush hop entirely, and the shard
    // only takes over when the socket pushes back.
    bool wr_shut_ CO_GUARDED_BY(out_mu_) = false;  ///< write side retired
    WritevBatch wr_batch_ CO_GUARDED_BY(out_mu_);
    /// Enrolled in some thread's SendCork, which owes this channel a flush;
    /// until it runs, the shard leaves the outbox alone.
    bool corked_ CO_GUARDED_BY(out_mu_) = false;

    // Shard bookkeeping (owning shard's loop thread only, except the atomic).
    short carry_ = 0;           ///< readiness carried across fairness-capped visits
    bool in_attention_ = false; ///< enrolled in the shard's attention list
    bool in_timed_ = false;     ///< enrolled in the shard's drain-deadline list
    std::atomic<bool> kick_pending_{false};  ///< a targeted wakeup is queued
    ShardFlushCounters* shard_counters_ = nullptr;  ///< set at registration
};

struct ListenOptions {
    /// Pending-connection queue handed to ::listen. The old hardcoded 16
    /// stays the default; accept-heavy servers should raise it.
    int backlog = 16;
    /// Set SO_REUSEADDR before bind (default on, as before) — but a failure
    /// to set it now surfaces as an error instead of being ignored.
    bool reuse_addr = true;
    /// Reactor that accepted channels register with; nullptr means the
    /// process-wide Reactor::shared(). Servers pass their own private
    /// reactor so registered_count() tracks exactly their connections.
    std::shared_ptr<Reactor> reactor;
    /// Legacy baseline for benchmarks: give every accepted connection its
    /// own dedicated reactor (one I/O thread per connection), overriding
    /// `reactor`. This is the thread-per-connection cost model the shared
    /// reactor replaced — measured against it in bench_sessions.
    bool thread_per_connection = false;
};

class TcpListener {
  public:
    /// A freshly accepted connection, delivered on a reactor shard thread.
    /// The handler must be cheap and must not block on reactor progress
    /// (enqueue/attach-and-return); it may be invoked concurrently from
    /// different shards when the epoll backend spreads accepts.
    using AcceptHandler = std::function<void(std::shared_ptr<TcpChannel>)>;

    /// Binds and listens on 127.0.0.1:`port`; port 0 picks an ephemeral port.
    static Result<std::unique_ptr<TcpListener>> create(std::uint16_t port,
                                                       ListenOptions options = {});
    ~TcpListener();

    TcpListener(const TcpListener&) = delete;
    TcpListener& operator=(const TcpListener&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// Accepts one connection; blocks up to `timeout_ms` (-1 = forever).
    /// Readiness goes through the same Poller backend the reactor uses.
    /// Not usable after start_async().
    Result<std::shared_ptr<TcpChannel>> accept(int timeout_ms = -1);

    /// Switches to asynchronous accept: the listen fd registers with the
    /// reactor (every shard with EPOLLEXCLUSIVE on the epoll backend) and
    /// `handler` runs on a shard thread per accepted connection. The
    /// destructor (or stop_async) deregisters with a blocking handshake.
    /// Incompatible with ListenOptions::thread_per_connection.
    Status start_async(AcceptHandler handler);
    /// Deregisters the async accept; no handler invocation survives the
    /// return. Idempotent; must not be called from a reactor thread.
    void stop_async();

  private:
    TcpListener(int fd, std::uint16_t port, ListenOptions options)
        : fd_(fd), port_(port), options_(std::move(options)) {}

    /// Shard-thread callback: accept until EAGAIN, wrap, hand off.
    void accept_ready();
    [[nodiscard]] std::shared_ptr<Reactor> resolved_reactor() const;

    int fd_;
    std::uint16_t port_;
    ListenOptions options_;
    std::unique_ptr<Poller> accept_poller_;  ///< lazy, sync accept() only
    AcceptHandler async_handler_;            ///< set before registration, cleared after
    std::shared_ptr<Reactor> async_reactor_; ///< holds the reactor while registered
};

/// Connects to 127.0.0.1:`port`. The channel registers with `reactor`
/// (nullptr = the process-wide Reactor::shared()).
Result<std::shared_ptr<TcpChannel>> tcp_connect(const std::string& host, std::uint16_t port,
                                                std::shared_ptr<Reactor> reactor = nullptr);

}  // namespace cosoft::net

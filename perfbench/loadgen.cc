/**
 * @file
 * Load generator: one thread per connection, each driving its own
 * non-blocking loopback socket with pipelined frames.
 *
 * Closed loop keeps `depth` queries outstanding per connection and
 * times each from its send. Open loop sends on a precomputed Poisson
 * schedule regardless of replies and times each query from when it
 * was due, so a stall counts against every query queued behind it.
 * Every response is decoded with the owning client's ClientSession
 * and compared with the generator's record.
 *
 * A client belongs to exactly one connection (client i to connection
 * i mod connections), so per-client state is thread-local. When a
 * query finds its session evicted (UnknownClient / StaleGeneration),
 * the client re-registers on the same connection and the query is
 * re-sent once the new generation arrives; the whole wait counts in
 * that query's latency.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <deque>
#include <mutex>
#include <thread>

#include "bench.hh"
#include "common/rng.hh"
#include "net/frame.hh"
#include "pir/wire.hh"

namespace perfbench {

using namespace ive;

namespace {

/** A response that does not arrive within this is a timeout. */
constexpr double kStallSec = 30.0;

class Link
{
  public:
    explicit Link(u16 port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0)
            throw Error("perfbench: socket() failed");
        int one = 1;
        (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) < 0) {
            ::close(fd_);
            throw Error("perfbench: connect() failed");
        }
    }
    ~Link()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Link(const Link &) = delete;
    Link &operator=(const Link &) = delete;

    /** Queues one frame and writes what the socket takes without
     *  blocking; false when the connection is gone. Frames the server
     *  is not reading yet (its backpressure) wait here, so the sender
     *  never stalls behind them and the wait shows as latency. */
    bool
    send(std::span<const u8> payload)
    {
        net::appendFrame(out_, payload);
        return flush();
    }

    /** Waits up to timeout_ms for reply bytes while writing queued
     *  frames; false when the connection is gone. Complete frames are
     *  then available from next(). */
    bool
    wait(int timeout_ms)
    {
        if (codec_.hasCompleteFrame())
            return true;
        const bool writing = outOff_ < out_.size();
        pollfd p{fd_, short(POLLIN | (writing ? POLLOUT : 0)), 0};
        if (::poll(&p, 1, timeout_ms) <= 0)
            return true;
        if ((p.revents & POLLOUT) && !flush())
            return false;
        return !(p.revents & (POLLIN | POLLHUP | POLLERR)) || pump();
    }

    std::optional<std::vector<u8>> next() { return codec_.next(); }

  private:
    /** Writes queued frame bytes until the socket would block. */
    bool
    flush()
    {
        while (outOff_ < out_.size()) {
            ssize_t n = ::send(fd_, out_.data() + outOff_,
                               out_.size() - outOff_,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n > 0)
                outOff_ += static_cast<size_t>(n);
            else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return true;
            else if (!(n < 0 && errno == EINTR))
                return false;
        }
        out_.clear();
        outOff_ = 0;
        return true;
    }

    /** Reads what the socket holds into the codec. */
    bool
    pump()
    {
        u8 buf[64 * 1024];
        for (;;) {
            ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
            if (n > 0) {
                codec_.feed(std::span<const u8>(buf, static_cast<size_t>(n)));
                if (static_cast<size_t>(n) < sizeof buf)
                    return true;
            } else if (n == 0) {
                return false;
            } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
                return true;
            } else if (errno != EINTR) {
                return false;
            }
        }
    }

    int fd_ = -1;
    net::FrameCodec codec_;
    std::vector<u8> out_; ///< Queued frames; [0, outOff_) already sent.
    size_t outOff_ = 0;
};

struct Arrival
{
    u64 dueNs = 0;
    int client = 0;
    int pick = 0; ///< Index into the client's query pool.
};

/** A query waiting for a reply or for its client's re-registration. */
struct Query
{
    int client = 0;
    int pick = 0;
    u64 startNs = 0; ///< Due time (open loop) or first send (closed).
    u64 sendNs = 0;  ///< Latest send, for the round trip.
    bool retried = false;
    bool measured = false; ///< Started after the warm-up.
    u64 request = 0;
};

/** What the connection expects next, in send order. */
struct Expected
{
    bool isRegister = false;
    int client = 0;
    u64 sendNs = 0;
    Query query; ///< When !isRegister.
};

struct ClientState
{
    bool registering = false;
    u64 registeredNs = 0;    ///< Last registration reply.
    std::vector<Query> held; ///< Queries waiting for the new generation.
};

/** One connection's load loop; owns the state of its clients. */
class ConnectionLoop
{
  public:
    ConnectionLoop(const Workload &w, u16 port,
                   std::vector<Client> &clients,
                   std::vector<u64> &generation, const Expect &expect,
                   int conn, bool trace)
        : w_(w), port_(port), clients_(clients), generation_(generation),
          expect_(expect), conn_(conn), state_(clients.size())
    {
        res_.spans = Spans(trace);
        for (size_t c = 0; c < clients.size(); ++c)
            if (static_cast<int>(c % size_t(kConnections)) == conn)
                mine_.push_back(static_cast<int>(c));
    }

    LoadResult
    run(const std::vector<Arrival> &schedule, u64 start_ns, u64 measure_ns,
        u64 end_ns)
    {
        measureNs_ = measure_ns;
        lastDoneNs_ = measure_ns;
        link_ = std::make_unique<Link>(port_);
        size_t next_arrival = 0;
        size_t rotate = 0;
        std::vector<int> next_pick(clients_.size(), 0);
        while (nowNs() < start_ns)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        lastProgressNs_ = nowNs();

        for (;;) {
            const u64 now = nowNs();
            if (!w_.openLoop()) {
                while (now < end_ns && outstanding_ < w_.depth &&
                       !mine_.empty()) {
                    int c = mine_[rotate++ % mine_.size()];
                    int pick = next_pick[static_cast<size_t>(c)]++ %
                               kQueriesPerClient;
                    issue(c, pick, nowNs());
                }
            } else {
                while (next_arrival < schedule.size() &&
                       schedule[next_arrival].dueNs <= now) {
                    const Arrival &a = schedule[next_arrival++];
                    if (a.dueNs >= measure_ns)
                        res_.lateMs.push_back(double(nowNs() - a.dueNs) /
                                              1e6);
                    issue(a.client, a.pick, a.dueNs);
                }
            }
            const bool issuing = !w_.openLoop()
                                     ? now < end_ns
                                     : next_arrival < schedule.size();
            if (!issuing && outstanding_ == 0 && expected_.empty())
                break;
            if (!expected_.empty() && now > lastProgressNs_ &&
                double(now - lastProgressNs_) / 1e9 > kStallSec) {
                res_.timeouts += u64(outstanding_);
                break;
            }

            int timeout_ms = 50;
            if (w_.openLoop() && next_arrival < schedule.size()) {
                u64 due = schedule[next_arrival].dueNs;
                timeout_ms = due > now ? int((due - now) / 1000000) : 0;
                timeout_ms = std::min(timeout_ms, 50);
            }
            bool alive = !linkLost_ && link_->wait(timeout_ms);
            while (alive) {
                std::optional<std::vector<u8>> frame;
                try {
                    frame = link_->next();
                } catch (const Error &) {
                    alive = false;
                    break;
                }
                if (!frame)
                    break;
                lastProgressNs_ = nowNs();
                alive = handle(*frame, lastProgressNs_);
            }
            if (!alive && !reconnect())
                break;
        }
        res_.elapsedSec = double(lastDoneNs_ - measureNs_) / 1e9;
        return std::move(res_);
    }

  private:
    void
    issue(int c, int pick, u64 start_ns)
    {
        ++outstanding_;
        Query q;
        q.client = c;
        q.pick = pick;
        q.startNs = start_ns;
        q.measured = start_ns >= measureNs_;
        q.request = (u64(conn_) << 48) | ++issued_;
        if (q.measured)
            ++res_.attempted;
        ClientState &st = state_[size_t(c)];
        if (st.registering) {
            q.retried = true;
            st.held.push_back(q);
            return;
        }
        sendQuery(q);
    }

    void
    sendQuery(Query q)
    {
        const Client &cl = clients_[size_t(q.client)];
        PirQueryRef ref;
        ref.clientId = cl.id;
        ref.generation = generation_[size_t(q.client)];
        ref.queryBlob = cl.queries[size_t(q.pick)];
        q.sendNs = nowNs();
        if (expected_.empty())
            lastProgressNs_ = q.sendNs;
        Expected e;
        e.client = q.client;
        e.sendNs = q.sendNs;
        e.query = q;
        expected_.push_back(e);
        if (!link_->send(serializeQueryRef(ref)))
            linkLost_ = true;
    }

    void
    sendRegister(int c)
    {
        const Client &cl = clients_[size_t(c)];
        PirRegisterKeys reg;
        reg.clientId = cl.id;
        reg.paramsBlob = cl.paramsBlob;
        reg.keyBlob = cl.session->keyBlob();
        state_[size_t(c)].registering = true;
        Expected e;
        e.isRegister = true;
        e.client = c;
        e.sendNs = nowNs();
        if (expected_.empty())
            lastProgressNs_ = e.sendNs;
        expected_.push_back(e);
        if (!link_->send(serializeRegisterKeys(reg)))
            linkLost_ = true;
    }

    /** Handles one reply; false when the connection must be reset. */
    bool
    handle(const std::vector<u8> &frame, u64 now)
    {
        if (expected_.empty())
            return false; // A reply nobody asked for: stream is off.
        Expected e = std::move(expected_.front());
        expected_.pop_front();
        WireKind kind{}; // stays invalid for a garbled frame
        try {
            kind = peekWireKind(frame);
        } catch (const Error &) {
        }
        if (e.isRegister)
            return onRegistered(e, frame, kind, now);

        Query &q = e.query;
        if (kind == WireKind::ErrorResponse) {
            NetErrorCode code = NetErrorCode::Internal;
            try {
                code = deserializeErrorResponse(frame).code;
            } catch (const Error &) {
            }
            if (code == NetErrorCode::UnknownClient ||
                code == NetErrorCode::StaleGeneration) {
                retry(q);
                return !linkLost_;
            }
            finish(q, now, Outcome::ErrorFrame);
            return !linkLost_;
        }
        if (q.measured && !q.retried)
            ++res_.firstTryHits;
        if (q.measured)
            res_.rttMs.push_back(double(now - q.sendNs) / 1e6);
        bool ok = false;
        try {
            const Client &cl = clients_[size_t(q.client)];
            ok = kind == WireKind::Response &&
                 cl.session->decodeResponse(frame) ==
                     expect_[size_t(q.client)][size_t(q.pick)];
        } catch (const Error &) {
            ok = false;
        }
        const u64 done = nowNs();
        traceQuery(q, now, done);
        finish(q, done, ok ? Outcome::Correct : Outcome::Wrong);
        return !linkLost_;
    }

    void
    traceQuery(const Query &q, u64 frame_ns, u64 done_ns)
    {
        if (!res_.spans.on() || !q.measured)
            return;
        // Parent covers first send to decoded record; the round trip
        // of the final send and the decode are its children.
        Spans &s = res_.spans;
        const size_t base = s.all().size();
        s.add("client.query", q.startNs, done_ns, -1, q.request);
        s.add("net.roundtrip", q.sendNs, frame_ns, int(base), q.request);
        s.add("client.decode", frame_ns, done_ns, int(base), q.request);
    }

    bool
    onRegistered(const Expected &e, const std::vector<u8> &frame,
                 WireKind kind, u64 now)
    {
        ClientState &st = state_[size_t(e.client)];
        st.registering = false;
        std::vector<Query> held = std::move(st.held);
        st.held.clear();
        bool ok = false;
        if (kind == WireKind::Hello) {
            try {
                generation_[size_t(e.client)] =
                    deserializeHello(frame).generation;
                ok = true;
            } catch (const Error &) {
            }
        }
        if (!ok) {
            for (const Query &q : held)
                finish(q, now, Outcome::ErrorFrame);
            return !linkLost_;
        }
        st.registeredNs = now;
        if (e.sendNs >= measureNs_) {
            res_.registerMs.push_back(double(now - e.sendNs) / 1e6);
            res_.spans.add("client.register", e.sendNs, now, -1, 0);
        }
        for (const Query &q : held)
            sendQuery(q);
        return !linkLost_;
    }

    /** Session evicted or replaced: re-register, then re-send. A
     *  registration that completed after this query was sent already
     *  installed a good generation, so the query is just re-sent. */
    void
    retry(Query q)
    {
        ClientState &st = state_[size_t(q.client)];
        q.retried = true;
        if (st.registering) {
            st.held.push_back(q);
        } else if (st.registeredNs > q.sendNs) {
            sendQuery(q);
        } else {
            st.held.push_back(q);
            sendRegister(q.client);
        }
    }

    enum class Outcome { Correct, Wrong, ErrorFrame };

    /** Warm-up queries are not timed; one that fails still counts as
     *  an attempted, failed query. */
    void
    finish(const Query &q, u64 done_ns, Outcome o)
    {
        --outstanding_;
        if (!q.measured && o == Outcome::Correct)
            return;
        if (!q.measured)
            ++res_.attempted;
        else
            lastDoneNs_ = std::max(lastDoneNs_, done_ns);
        switch (o) {
        case Outcome::Correct: {
            ++res_.correct;
            double ms = double(done_ns - q.startNs) / 1e6;
            res_.latencyMs.push_back(ms);
            res_.startSec.push_back(double(q.startNs - measureNs_) / 1e9);
            if (ms <= w_.sloMs)
                ++res_.withinSlo;
            break;
        }
        case Outcome::Wrong:
            ++res_.wrong;
            break;
        case Outcome::ErrorFrame:
            ++res_.errorFrames;
            break;
        }
    }

    /** Connection dropped: everything outstanding is lost. Reconnects
     *  so the rest of the phase still runs. */
    bool
    reconnect()
    {
        for (const Expected &e : expected_)
            if (!e.isRegister && !e.query.measured)
                ++res_.attempted;
        for (int c : mine_)
            for (const Query &q : state_[size_t(c)].held)
                if (!q.measured)
                    ++res_.attempted;
        res_.lost += u64(outstanding_);
        outstanding_ = 0;
        expected_.clear();
        for (int c : mine_) {
            state_[size_t(c)].registering = false;
            state_[size_t(c)].held.clear();
        }
        linkLost_ = false;
        try {
            link_ = std::make_unique<Link>(port_);
        } catch (const Error &) {
            return false;
        }
        return true;
    }

    const Workload &w_;
    u16 port_;
    std::vector<Client> &clients_;
    std::vector<u64> &generation_;
    const Expect &expect_;
    int conn_;
    std::vector<ClientState> state_;
    std::vector<int> mine_;
    std::unique_ptr<Link> link_;
    std::deque<Expected> expected_;
    int outstanding_ = 0;
    bool linkLost_ = false;
    u64 measureNs_ = 0;  ///< End of the warm-up.
    u64 lastDoneNs_ = 0; ///< Last measured completion.
    u64 issued_ = 0;
    u64 lastProgressNs_ = 0; ///< Last reply, or first send after idle.
    LoadResult res_;
};

/** Open-loop schedule: `rate * seconds` arrivals at uniform order
 *  statistics (a Poisson process conditioned on its count, so every
 *  seed offers the same load); clients drawn by Zipf rank. */
std::vector<Arrival>
openSchedule(const Workload &w, const std::vector<int> &by_rank,
             double seconds, u64 seed, u64 start_ns)
{
    Rng rng(seed ^ 0x5eed0a11u);
    const size_t count = size_t(std::llround(w.rate * seconds));
    std::vector<double> at(count);
    for (double &t : at)
        t = rng.uniformReal() * seconds;
    std::sort(at.begin(), at.end());

    const size_t nc = by_rank.size();
    std::vector<double> cdf(nc);
    double acc = 0.0;
    for (size_t r = 0; r < nc; ++r)
        cdf[r] = acc += 1.0 / std::pow(double(r + 1), w.zipf);

    std::vector<Arrival> out(count);
    for (size_t i = 0; i < count; ++i) {
        double u = rng.uniformReal() * acc;
        size_t r = size_t(std::lower_bound(cdf.begin(), cdf.end(), u) -
                          cdf.begin());
        out[i].dueNs = start_ns + u64(at[i] * 1e9);
        out[i].client = by_rank[std::min(r, nc - 1)];
        out[i].pick = int(rng.uniform(u64(kQueriesPerClient)));
    }
    return out;
}

} // namespace

std::vector<int>
popularity(const Workload &w, u64 seed)
{
    // Rank r is served by connection r mod connections, so every seed
    // spreads the hot clients evenly over the connections; a seeded
    // shuffle within each connection's clients picks which client
    // holds which rank.
    Rng rng(seed ^ 0x7a697066u);
    const size_t nc = size_t(w.clients);
    const size_t conns = size_t(kConnections);
    std::vector<int> by_rank(nc);
    for (size_t k = 0; k < conns; ++k) {
        std::vector<int> mine;
        for (size_t c = k; c < nc; c += conns)
            mine.push_back(int(c));
        for (size_t i = mine.size(); i > 1; --i)
            std::swap(mine[i - 1], mine[rng.uniform(i)]);
        for (size_t j = 0; j < mine.size(); ++j)
            by_rank[k + j * conns] = mine[j];
    }
    return by_rank;
}

LoadResult
runLoad(const Workload &w, u16 port, std::vector<Client> &clients,
        std::vector<u64> &generation, const Expect &expect,
        const std::vector<int> &by_rank, double warmup, double seconds,
        u64 seed, bool trace)
{
    const u64 start = nowNs() + 20'000'000; // let every thread connect
    const u64 measure = start + u64(warmup * 1e9);
    const u64 end = measure + u64(seconds * 1e9);
    std::vector<Arrival> all;
    if (w.openLoop())
        all = openSchedule(w, by_rank, warmup + seconds, seed, start);

    std::vector<LoadResult> parts(static_cast<size_t>(kConnections));
    std::vector<std::thread> threads;
    std::mutex errMu;
    std::string err;
    for (int k = 0; k < kConnections; ++k) {
        threads.emplace_back([&, k] {
            std::vector<Arrival> mine;
            for (const Arrival &a : all)
                if (a.client % kConnections == k)
                    mine.push_back(a);
            try {
                ConnectionLoop loop(w, port, clients, generation, expect, k,
                                    trace);
                parts[size_t(k)] = loop.run(mine, start, measure, end);
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lk(errMu);
                err = e.what();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    if (!err.empty())
        throw Error("perfbench load generator: " + err);

    LoadResult r;
    r.spans = Spans(trace);
    for (LoadResult &p : parts) {
        r.attempted += p.attempted;
        r.correct += p.correct;
        r.errorFrames += p.errorFrames;
        r.timeouts += p.timeouts;
        r.lost += p.lost;
        r.wrong += p.wrong;
        r.firstTryHits += p.firstTryHits;
        r.withinSlo += p.withinSlo;
        r.elapsedSec = std::max(r.elapsedSec, p.elapsedSec);
        auto cat = [](std::vector<double> &a, const std::vector<double> &b) {
            a.insert(a.end(), b.begin(), b.end());
        };
        cat(r.latencyMs, p.latencyMs);
        cat(r.startSec, p.startSec);
        cat(r.rttMs, p.rttMs);
        cat(r.registerMs, p.registerMs);
        cat(r.lateMs, p.lateMs);
        r.spans.append(p.spans);
    }
    return r;
}

} // namespace perfbench

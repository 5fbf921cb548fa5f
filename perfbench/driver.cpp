// Open-loop load driver: one thread, a few pipelined TCP connections.
//
// Every operation has a scheduled send time fixed before the phase starts
// (generates at a constant rate, threshold queries at given offsets). The
// driver sends each one when its time comes, whatever the server is doing,
// and measures latency from the scheduled time, so queueing in the server
// shows up in the tail instead of slowing the load down. How late each send
// actually went out (the send lag) is recorded too: if it grows, the run
// measured the driver rather than the server.
//
// By default the driver ACKs every reply at once (TCP_QUICKACK, re-armed
// after each read). The server's accepted sockets run with Nagle's
// algorithm on, so a client that delays its ACKs makes the server hold a
// ready reply until the client's next request carries the ACK: latency then
// tracks the request gap per connection and flips between runs with the
// kernel's quick-ACK heuristics. Acking at once keeps the gated figures the
// server's own work; a phase with quick_ack off ACKs the way the library's
// Client does (kernel default), so that cost is measured too.
//
// Generate frames are encoded once per PL array; each send copies the
// template and patches the 8-byte RNG stream field.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>

#include "bench.h"
#include "common/error.h"
#include "common/framing.h"
#include "common/rng.h"
#include "data/normalization.h"
#include "serve/endpoint.h"
#include "serve/protocol.h"

namespace fgbench {

namespace {

namespace serve = flashgen::serve;
namespace framing = flashgen::framing;

struct Pending {
  std::uint64_t id = 0;
  Clock::time_point scheduled;
  std::uint64_t send_ns = 0;
  int threshold = -1;  // index into the phase's threshold ops, or -1
};

/// Owns a file descriptor.
struct Fd {
  int fd = -1;
  explicit Fd(int f) : fd(f) {}
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
};

struct Conn {
  int fd = -1;  // owned by the phase's Fd list
  bool dirty = false;  // bytes appended since the last flush
  framing::FrameDecoder decoder;
  std::vector<std::uint8_t> outbuf;
  std::size_t out_off = 0;
  bool want_write = false;
  std::deque<Pending> pending;
};

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

void quick_ack(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
}

/// Framed generate request per PL array, plus where its stream field sits.
struct FrameTemplates {
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t stream_offset = 0;
};

FrameTemplates encode_templates(const PhaseSpec& spec) {
  serve::GenerateRequest request;
  request.model = spec.model;
  request.seed = spec.seed;
  request.side = spec.side;
  request.program_levels = spec.pl_pool->front();
  // Locate the stream field by encoding two streams that differ in every byte.
  request.stream = 0;
  const auto a = framing::encode_frame(serve::encode_generate_request(request));
  request.stream = ~std::uint64_t{0};
  const auto b = framing::encode_frame(serve::encode_generate_request(request));
  FrameTemplates t;
  t.stream_offset = static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin()).first - a.begin());
  FG_CHECK(t.stream_offset + 8 <= a.size(), "driver: cannot locate the stream field");
  request.stream = 0;
  for (const auto& pl : *spec.pl_pool) {
    request.program_levels = pl;
    t.frames.push_back(framing::encode_frame(serve::encode_generate_request(request)));
  }
  return t;
}

}  // namespace

std::vector<std::vector<float>> make_pl_pool(std::uint64_t seed, int side, int count) {
  flashgen::data::VoltageNormalizer normalizer;
  std::vector<std::vector<float>> pool(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    flashgen::Rng rng = flashgen::Rng::from_stream(seed, static_cast<std::uint64_t>(i));
    auto& pl = pool[static_cast<std::size_t>(i)];
    pl.resize(static_cast<std::size_t>(side) * side);
    for (float& v : pl) v = normalizer.normalize_level(static_cast<int>(rng.uniform_int(8)));
  }
  return pool;
}

PhaseResult run_phase(const PhaseSpec& spec) {
  FG_CHECK(spec.connections > 0 && (spec.window > 0 || spec.rps > 0.0) && spec.seconds > 0.0,
           "driver: bad phase spec");
  FG_CHECK(spec.pl_pool != nullptr && !spec.pl_pool->empty(), "driver: empty PL pool");
  // Sub-microsecond timer slack, so sends leave on schedule.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  const serve::Endpoint endpoint = serve::parse_endpoint(spec.endpoint);
  const Fd epoll(::epoll_create1(EPOLL_CLOEXEC));
  const int epoll_fd = epoll.fd;
  FG_CHECK(epoll_fd >= 0, "epoll_create1: " << std::strerror(errno));
  std::vector<Conn> conns(static_cast<std::size_t>(spec.connections));
  std::vector<std::unique_ptr<Fd>> sockets;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    sockets.push_back(std::make_unique<Fd>(serve::connect_endpoint(endpoint)));  // TCP_NODELAY set
    conns[i].fd = sockets.back()->fd;
    framing::set_nonblocking(conns[i].fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    FG_CHECK(::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, conns[i].fd, &ev) == 0,
             "epoll_ctl: " << std::strerror(errno));
  }
  const FrameTemplates templates = encode_templates(spec);

  const auto set_write_interest = [&](std::size_t i) {
    Conn& c = conns[i];
    const bool want = c.out_off < c.outbuf.size();
    if (want == c.want_write) return;
    c.want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = i;
    FG_CHECK(::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c.fd, &ev) == 0,
             "epoll_ctl: " << std::strerror(errno));
  };
  const auto flush = [&](std::size_t i) {
    Conn& c = conns[i];
    if (c.out_off < c.outbuf.size())
      c.out_off += framing::write_some(c.fd, c.outbuf.data() + c.out_off,
                                       c.outbuf.size() - c.out_off);
    if (c.out_off == c.outbuf.size()) {
      c.outbuf.clear();
      c.out_off = 0;
    }
    c.dirty = false;
    set_write_interest(i);
  };

  PhaseResult result;
  result.rps = spec.rps;
  const bool windowed = spec.window > 0;
  FG_CHECK(!windowed || spec.thresholds.empty(), "driver: a windowed phase sends only generates");
  // Open loop: a fixed count. Windowed: open-ended until the phase time is
  // up, then fixed at what was sent. An abort also cuts the count short.
  std::uint64_t n_gen = windowed ? std::numeric_limits<std::uint64_t>::max() / 2
                                 : static_cast<std::uint64_t>(spec.rps * spec.seconds);
  std::uint64_t n_ops = n_gen + spec.thresholds.size();
  if (!windowed) {
    result.gen_latency_us.reserve(n_gen);
    result.send_lag_us.reserve(n_ops);
  }
  result.threshold_replies.resize(spec.thresholds.size());

  serve::ThresholdQuery query;
  query.model = spec.model;

  Spans& spans = Spans::global();
  const double ns_per_gen = 1e9 / spec.rps;
  const auto phase_end = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(spec.seconds));
  const double cpu0 = process_cpu_us();
  const Clock::time_point t0 = Clock::now();
  const auto gen_time = [&](std::uint64_t i) {
    return t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(static_cast<double>(i) * ns_per_gen));
  };
  const auto thr_time = [&](std::size_t j) {
    return t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(spec.thresholds[j].at_s * 1e9));
  };

  std::uint64_t next_gen = 0;
  std::size_t next_thr = 0;
  std::uint64_t sent = 0, completed = 0;
  std::size_t rr = 0;
  Clock::time_point last_progress = t0;

  // Queues one request; the caller flushes every touched connection once
  // per pass, so requests due together leave in one write.
  const auto send = [&](Clock::time_point scheduled, int thr_index, std::uint64_t id) {
    Conn& conn = conns[rr++ % conns.size()];
    if (thr_index >= 0) {
      const data::Condition& c = spec.thresholds[static_cast<std::size_t>(thr_index)].condition;
      query.pe_cycles = c.pe_cycles;
      query.retention_hours = c.retention_hours;
      const auto frame = framing::encode_frame(serve::encode_threshold_query(query));
      conn.outbuf.insert(conn.outbuf.end(), frame.begin(), frame.end());
    } else {
      const auto& frame = templates.frames[id % templates.frames.size()];
      const std::size_t at = conn.outbuf.size() + templates.stream_offset;
      conn.outbuf.insert(conn.outbuf.end(), frame.begin(), frame.end());
      for (int b = 0; b < 8; ++b) conn.outbuf[at + b] = static_cast<std::uint8_t>(id >> (8 * b));
    }
    conn.dirty = true;
    const Clock::time_point now = Clock::now();
    if (!windowed) result.send_lag_us.push_back(std::max(0.0, micros(now - scheduled)));
    conn.pending.push_back(Pending{id, scheduled, now_ns(), thr_index});
    ++sent;
  };

  const auto consume = [&](std::size_t i) {
    Conn& c = conns[i];
    std::vector<std::uint8_t> payload;
    while (c.decoder.next(payload)) {
      FG_CHECK(!c.pending.empty(), "driver: unsolicited response");
      const Pending p = c.pending.front();
      c.pending.pop_front();
      ++completed;
      last_progress = Clock::now();
      const double latency = micros(last_progress - p.scheduled);
      if (spans.enabled()) spans.add(p.threshold >= 0 ? "client.threshold" : "client.generate",
                                     p.send_ns, now_ns(), -1, p.id);
      const serve::MessageType type = serve::peek_type(payload);
      if (type == serve::MessageType::kGenerateOk) {
        ++result.ok;
        if (!windowed) {  // a saturated phase only counts completions
          result.gen_latency_us.push_back(latency);
          result.gen_sched_s.push_back(std::chrono::duration<double>(p.scheduled - t0).count());
        }
        if (spec.capture_every > 0 && p.id % spec.capture_every == 0)
          result.captured[p.id] = serve::decode_generate_response(payload).voltages;
      } else if (type == serve::MessageType::kThresholdOk) {
        ++result.threshold_ok;
        ThresholdReply& reply = result.threshold_replies[static_cast<std::size_t>(p.threshold)];
        reply.latency_us = latency;
        reply.from_cache = serve::decode_threshold_response(payload).from_cache;
        reply.expect_cached = spec.thresholds[static_cast<std::size_t>(p.threshold)].expect_cached;
        reply.condition = spec.thresholds[static_cast<std::size_t>(p.threshold)].condition;
        reply.payload = payload;
        reply.payload.back() = 0;  // from_cache is the one cache-dependent byte
      } else if (type == serve::MessageType::kOverloaded) {
        ++result.shed;
      } else if (type == serve::MessageType::kRateLimited) {
        ++result.rate_limited;
      } else {
        ++result.errors;
      }
    }
  };

  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (completed < n_ops) {
    Clock::time_point now = Clock::now();
    if (windowed && sent < n_ops) {
      if (now - t0 >= phase_end) {
        n_gen = next_gen;
        n_ops = sent;
      } else {
        while (sent - completed < spec.window) send(now, -1, spec.first_id + next_gen++);
      }
    }
    while (!windowed && sent < n_ops) {
      const bool gen_left = next_gen < n_gen;
      const bool thr_left = next_thr < spec.thresholds.size();
      if (!gen_left && !thr_left) break;
      const bool pick_thr = thr_left && (!gen_left || thr_time(next_thr) <= gen_time(next_gen));
      const Clock::time_point due = pick_thr ? thr_time(next_thr) : gen_time(next_gen);
      if (due > now) break;
      if (spec.max_in_flight > 0 && sent - completed >= spec.max_in_flight) {
        result.aborted = true;
        n_ops = sent;
        break;
      }
      if (pick_thr) {
        send(due, static_cast<int>(next_thr), spec.first_id + n_gen + next_thr);
        ++next_thr;
      } else {
        send(due, -1, spec.first_id + next_gen);
        ++next_gen;
      }
      now = Clock::now();
    }
    for (std::size_t i = 0; i < conns.size(); ++i)
      if (conns[i].dirty) flush(i);

    timespec timeout{0, 100'000'000};  // everything sent: poll for replies
    if (windowed && sent < n_ops) {
      const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::min<Clock::duration>(t0 + phase_end - Clock::now(), std::chrono::milliseconds(100)));
      timeout = timespec{0, static_cast<long>(std::max<std::int64_t>(0, left.count()))};
    } else if (sent < n_ops) {
      Clock::time_point due = Clock::time_point::max();
      if (next_gen < n_gen) due = gen_time(next_gen);
      if (next_thr < spec.thresholds.size()) due = std::min(due, thr_time(next_thr));
      const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(due - Clock::now());
      const std::int64_t ns = std::max<std::int64_t>(0, wait.count());
      timeout = timespec{static_cast<time_t>(ns / 1'000'000'000), static_cast<long>(ns % 1'000'000'000)};
    } else {
      FG_CHECK(seconds_since(last_progress) < 30.0, "driver: no reply for 30 s");
    }
    const int n = ::epoll_pwait2(epoll_fd, events, kMaxEvents, &timeout, nullptr);
    if (n < 0) {
      FG_CHECK(errno == EINTR, "epoll_pwait2: " << std::strerror(errno));
      continue;
    }
    for (int e = 0; e < n; ++e) {
      const std::size_t i = static_cast<std::size_t>(events[e].data.u64);
      if ((events[e].events & EPOLLOUT) != 0) flush(i);
      if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        const framing::ReadStatus status = framing::read_some(conns[i].fd, conns[i].decoder);
        if (spec.quick_ack) quick_ack(conns[i].fd);
        consume(i);
        FG_CHECK(status != framing::ReadStatus::kEof || completed >= n_ops,
                 "driver: server closed a connection mid-phase");
      }
    }
  }

  result.elapsed_s = seconds_since(t0);
  result.cpu_us = process_cpu_us() - cpu0;
  result.sent = sent;
  // Every sent request is waited for, so completions over the phase are the
  // sustained rate: about min(R, C) for an offered rate R and capacity C.
  result.achieved_rps = static_cast<double>(result.ok) / result.elapsed_s;
  return result;
}

std::string phase_summary(const char* label, const PhaseResult& r) {
  char line[400];
  std::snprintf(line, sizeof line,
                "%-14s rps %8.1f achieved %8.1f  p50 %8.1fus p99 %8.1fus max %8.1fus  "
                "lag p99 %6.1fus  %.2fs  sent %llu ok %llu thr %llu shed %llu rate_limited %llu "
                "errors %llu%s",
                label, r.rps, r.achieved_rps, quantile(r.gen_latency_us, 0.5),
                quantile(r.gen_latency_us, 0.99), quantile(r.gen_latency_us, 1.0),
                quantile(r.send_lag_us, 0.99), r.elapsed_s,
                static_cast<unsigned long long>(r.sent), static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.threshold_ok),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.rate_limited),
                static_cast<unsigned long long>(r.errors), r.aborted ? "  ABORTED" : "");
  return line;
}

}  // namespace fgbench

// serve_small: an in-process Server on loopback, two ServeClient
// connections in a closed loop with one request in flight each, against
// the warm, registered, single-type "@bench" library schema.
//
// The request pool (seeded) holds documents of 6 to 60 nodes: 10% invalid
// by construction (half miss the last book's title, half put a chapter
// before it), 2% use an undeclared element, 2% carry the schema inline
// (warm in the registry's compile cache), the rest are valid. Each
// response code is checked against the one fixed at generation.
//
// Two client threads and two handler threads fit in four cores, so the
// time per request is serve-layer time (socket I/O, frame codec, thread
// hand-off, per-request Budget, access log, alphabet copy) more than
// automaton work.
//
// The traced run interleaves three more passes with the untraced loop:
// the closed loop again with a span around each client Send+Receive;
// HandleRequest, ValidateDocument, the alphabet copy and the frame codec
// called directly on the same decoded requests; and a closed loop of PING
// requests, which measures the transport alone.
#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "docs.h"
#include "stap/base/compile_cache.h"
#include "stap/io/artifact.h"
#include "stap/io/batch_validate.h"
#include "stap/serve/client.h"
#include "stap/serve/protocol.h"
#include "stap/serve/server.h"

namespace perfbench {
namespace {

using stap::ResponseCode;
using stap::ServeRequest;

constexpr int kClients = 2;

struct Request {
  ServeRequest request;
  ResponseCode expected;
};

std::vector<Request> MakePool(uint64_t seed, int size) {
  std::mt19937_64 rng(seed);
  // Exact shares, so every seed sends the same mix.
  std::vector<Flaw> flaws(size, Flaw::kNone);
  std::vector<bool> inline_schema(size, false);
  const int invalid = size / 10;
  const int undeclared = size / 50;
  const int inlined = size / 50;
  int next = 0;
  for (int i = 0; i < invalid; ++i) {
    flaws[next++] = i % 2 == 0 ? Flaw::kMissingTitle : Flaw::kWrongOrder;
  }
  for (int i = 0; i < undeclared; ++i) flaws[next++] = Flaw::kUndeclared;
  for (int i = 0; i < inlined; ++i) inline_schema[next++] = true;
  std::vector<int> order(size);
  for (int i = 0; i < size; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<Request> pool;
  pool.reserve(size);
  for (int i = 0; i < size; ++i) {
    const int slot = order[i];
    const int nodes = std::uniform_int_distribution<int>(6, 60)(rng);
    Request r;
    r.request.id = static_cast<uint64_t>(i) + 1;
    r.request.op = stap::Opcode::kValidate;
    r.request.schema_ref = inline_schema[slot] ? kLibrarySchema : "@bench";
    r.request.payload = LibraryDocument(&rng, nodes, flaws[slot]);
    r.expected = flaws[slot] == Flaw::kNone ? ResponseCode::kOk
                                            : ResponseCode::kInvalid;
    pool.push_back(std::move(r));
  }
  return pool;
}

// One closed-loop connection's results.
struct LoopStats {
  std::vector<double> rtt_ns;
  int64_t failed = 0;
  std::string first_failure;
  SpanRecorder spans;
};

// Runs every client in its own thread, one request in flight each, until
// `seconds` have passed (or `count` requests per client when positive),
// appending to `stats` (one entry per client). Client c starts at a
// different offset in the pool. With a `span_name`, each Send+Receive is
// recorded as that span.
void ClosedLoop(int port, const std::vector<Request>& pool, double seconds,
                int64_t count, const char* span_name,
                std::vector<LoopStats>* stats) {
  stats->resize(kClients);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LoopStats& s = (*stats)[c];
      stap::ServeClient client;
      const stap::Status connected = client.Connect("127.0.0.1", port);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (!connected.ok()) {
        if (s.failed++ == 0) s.first_failure = "connect: " + connected.message();
        return;
      }
      SpanRecorder* spans = span_name != nullptr ? &s.spans : nullptr;
      const Clock::time_point start = Clock::now();
      size_t next = static_cast<size_t>(c) * pool.size() / kClients;
      for (int64_t i = 0;; ++i) {
        if (count > 0 ? i >= count
                      : (i % 64 == 0 && SecondsSince(start) >= seconds)) {
          break;
        }
        const Request& r = pool[next];
        next = next + 1 == pool.size() ? 0 : next + 1;
        const Clock::time_point t0 = Clock::now();
        stap::StatusOr<stap::ServeResponse> response(
            stap::InternalError("unset"));
        {
          Span span(spans, span_name);
          const stap::Status sent = client.Send(r.request);
          response = sent.ok() ? client.Receive()
                               : stap::StatusOr<stap::ServeResponse>(sent);
        }
        s.rtt_ns.push_back(NanosSince(t0));
        const ResponseCode expected = r.request.op == stap::Opcode::kPing
                                          ? ResponseCode::kOk
                                          : r.expected;
        if (!response.ok() || response->id != r.request.id ||
            response->code != expected) {
          if (s.failed++ == 0) {
            s.first_failure =
                response.ok()
                    ? std::string("request ") +
                          std::to_string(r.request.id) + ": got " +
                          stap::ResponseCodeName(response->code) +
                          ", expected " + stap::ResponseCodeName(expected)
                    : "transport: " + response.status().message();
          }
          if (!response.ok()) return;
        }
      }
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
}

// Sums the loop into `result`; returns every round-trip time.
std::vector<double> Collect(const std::vector<LoopStats>& stats,
                            WorkloadResult* result) {
  std::vector<double> all;
  for (const LoopStats& s : stats) {
    all.insert(all.end(), s.rtt_ns.begin(), s.rtt_ns.end());
    result->attempted += static_cast<int64_t>(s.rtt_ns.size());
    if (s.failed > 0) {
      result->failed += s.failed - 1;
      result->Fail(s.first_failure);
    }
  }
  return all;
}

struct Setup {
  std::unique_ptr<stap::Server> server;
  std::shared_ptr<const stap::CompiledSchema> schema;
  std::vector<Request> pool;
};

}  // namespace

WorkloadResult RunServeSmall(const RunOptions& options) {
  WorkloadResult result;
  const int pool_size = options.smoke ? 200 : 4000;
  const int64_t warmup_per_client = options.smoke ? 50 : 4000;

  // Set-up: start the server, compile and register the schema, make the
  // requests, then warm up (which also compiles the inline schema once).
  // Repeated five times; the last server is kept.
  Setup setup;
  const double setup_s = MedianSeconds(5, [&] {
    if (setup.server != nullptr) setup.server->Stop();
    setup = Setup();
    stap::ServeOptions serve_options;
    serve_options.port = 0;
    serve_options.max_connections = 64;
    serve_options.request_budget_ms = 1000;
    serve_options.slow_request_ms = 100;
    setup.server = std::make_unique<stap::Server>(std::move(serve_options));
    const stap::Status started = setup.server->Start();
    if (!started.ok()) {
      result.Fail("server start: " + started.message());
      return;
    }
    stap::StatusOr<stap::CompiledSchema> compiled =
        stap::CompileSchema(kLibrarySchema, stap::CompileCache::Global());
    if (!compiled.ok()) {
      result.Fail("CompileSchema: " + compiled.status().message());
      return;
    }
    setup.schema =
        std::make_shared<const stap::CompiledSchema>(std::move(*compiled));
    stap::SchemaMap schemas;
    schemas["bench"] = setup.schema;
    setup.server->registry()->Swap(std::move(schemas));
    setup.pool = MakePool(options.seed, pool_size);
    std::vector<LoopStats> warmup;
    ClosedLoop(setup.server->port(), setup.pool, 0, warmup_per_client,
               nullptr, &warmup);
    WorkloadResult ignored;
    Collect(warmup, &ignored);
    if (ignored.failed > 0) result.Fail("warm-up: " + ignored.failures[0]);
  });
  if (result.failed > 0) return result;
  const int port = setup.server->port();

  // Untraced run: the closed loop in 1-second windows. Traced run: rounds
  // of four passes, so that all of them see the same machine: the closed
  // loop untraced (0.4 s), the closed loop traced (0.2 s), the layers
  // called directly (0.2 s) and the PING loop (0.2 s).
  std::vector<LoopStats> traced_loop;
  std::vector<LoopStats> ping_loop;
  SpanRecorder spans;
  double traced_s = 0;
  double bytes = 0;
  int64_t direct = 0;
  std::vector<Request> pings(setup.pool.size());
  for (size_t i = 0; i < pings.size(); ++i) {
    pings[i].request.id = i + 1;
    pings[i].request.op = stap::Opcode::kPing;
    pings[i].expected = ResponseCode::kOk;
  }
  // The layers one call at a time, on the same decoded requests.
  auto direct_calls = [&](double seconds) {
    const Clock::time_point direct_start = Clock::now();
    for (int64_t k = 0; k < 64 || SecondsSince(direct_start) < seconds;
         ++k, ++direct) {
      const Request& r = setup.pool[direct % setup.pool.size()];
      ++result.attempted;
      stap::StatusOr<ServeRequest> decoded(stap::InternalError("unset"));
      std::string request_frame;
      {
        Span span(&spans, "serve.codec");
        request_frame = stap::EncodeRequestFrame(r.request);
        decoded = stap::DecodeRequestBody(
            std::string_view(request_frame).substr(4));
      }
      if (!decoded.ok()) {
        result.Fail("DecodeRequestBody: " + decoded.status().message());
        continue;
      }
      const stap::ServeResponse response = [&] {
        Span span(&spans, "serve.handle");
        return setup.server->HandleRequest(*decoded);
      }();
      std::string response_frame;
      stap::StatusOr<stap::ServeResponse> decoded_response(
          stap::InternalError("unset"));
      {
        Span span(&spans, "serve.codec");
        response_frame = stap::EncodeResponseFrame(response);
        decoded_response = stap::DecodeResponseBody(
            std::string_view(response_frame).substr(4));
      }
      bytes +=
          static_cast<double>(request_frame.size() + response_frame.size());
      if (!decoded_response.ok() || decoded_response->code != r.expected) {
        result.Fail("direct HandleRequest response differs from the expected");
      }
      {
        Span span(&spans, "schema.alphabet_copy");
        stap::Alphabet copy = setup.schema->edtd.sigma;
      }
      Span span(&spans, "io.validate_document");
      stap::ValidateDocument(*setup.schema, r.request.payload, nullptr);
    }
  };
  // Latency quantiles and throughput per window of the untraced loop
  // (1 s, or 0.4 s in the traced run); the run reports the median over the
  // windows, so a burst of interference on the host moves a few windows,
  // not the result.
  double rtt_sum_ns = 0;
  int64_t requests = 0;
  std::vector<double> window_p50_us;
  std::vector<double> window_p90_us;
  std::vector<double> window_p99_us;
  std::vector<double> window_docs_per_s;
  auto untraced_window = [&](double seconds) {
    std::vector<LoopStats> window;
    const Clock::time_point t0 = Clock::now();
    ClosedLoop(port, setup.pool, seconds, 0, nullptr, &window);
    const double window_s = SecondsSince(t0);
    const std::vector<double> window_rtt = Collect(window, &result);
    window_p50_us.push_back(Quantile(window_rtt, 0.5) / 1e3);
    window_p90_us.push_back(Quantile(window_rtt, 0.9) / 1e3);
    window_p99_us.push_back(Quantile(window_rtt, 0.99) / 1e3);
    window_docs_per_s.push_back(static_cast<double>(window_rtt.size()) /
                                window_s);
    for (double ns : window_rtt) rtt_sum_ns += ns;
    requests += static_cast<int64_t>(window_rtt.size());
  };
  const double pass_s = 0.2;
  const Clock::time_point start = Clock::now();
  do {
    if (!options.trace) {
      untraced_window(1.0);
      continue;
    }
    untraced_window(0.4);
    const Clock::time_point t1 = Clock::now();
    ClosedLoop(port, setup.pool, pass_s, 0, "serve.rtt", &traced_loop);
    traced_s += SecondsSince(t1);
    direct_calls(pass_s);
    ClosedLoop(port, pings, pass_s, 0, nullptr, &ping_loop);
  } while (SecondsSince(start) < options.seconds);
  setup.server->Stop();

  const double p50_us = Median(window_p50_us);
  const double p90_us = Median(window_p90_us);
  const double p99_us = Median(window_p99_us);
  const double docs_per_s = Median(window_docs_per_s);
  result.AddHeadline(options, "serve.p50_us", p50_us, "us");
  result.AddHeadline(options, "serve.p99_us", p99_us, "us");
  result.AddHeadline(options, "serve.docs_per_s", docs_per_s, "1/s");
  result.AddDetail("serve.requests", static_cast<double>(requests), "count");
  result.AddDetail("serve.windows", static_cast<double>(window_p50_us.size()),
                   "count");

  if (!options.trace) {
    AddCommonMetrics(options, setup_s, 0, 0, 0, 0, &result);
    result.Add("op_p90_ms", p90_us / 1e3, "ms");
    // The median window, not the sustained rate of the single-thread
    // workloads: when the host takes a vCPU away, the hand-offs between
    // the four threads stall and a window collapses to a fraction of the
    // rate, in a share of windows that varies from run to run.
    result.Add("ops_per_s", docs_per_s, "1/s");
    return result;
  }

  const std::vector<double> traced_rtt = Collect(traced_loop, &result);
  const std::vector<double> ping_rtt = Collect(ping_loop, &result);
  SpanRecorder client_spans;
  for (const LoopStats& s : traced_loop) client_spans.Merge(s.spans);
  auto mean_us = [&](const SpanRecorder& recorder, const char* name) {
    const SpanRecorder::Totals t = recorder.Get(name);
    return t.count > 0 ? t.total_ns / static_cast<double>(t.count) / 1e3 : 0;
  };
  const double n = static_cast<double>(direct);
  const double rtt_us = mean_us(client_spans, "serve.rtt");
  const double handle_us = spans.Get("serve.handle").total_ns / n / 1e3;
  const double codec_us = spans.Get("serve.codec").total_ns / n / 1e3;
  const double ping_us = Mean(ping_rtt) / 1e3;
  result.Add("serve.rtt_us", rtt_us, "us");
  result.Add("serve.handle_us", handle_us, "us");
  result.Add("io.validate_document_us",
             mean_us(spans, "io.validate_document"), "us");
  result.Add("schema.alphabet_copy_us",
             mean_us(spans, "schema.alphabet_copy"), "us");
  result.Add("serve.codec_us", codec_us, "us");
  result.Add("serve.transport_us", rtt_us - handle_us - codec_us, "us");
  result.Add("serve.ping_rtt_us", ping_us, "us");
  result.Add("serve.bytes_per_req", bytes / n, "bytes");
  // Share of the handler threads' time spent in HandleRequest during the
  // traced closed loop.
  result.Add("serve.busy_ratio",
             static_cast<double>(traced_rtt.size()) * handle_us / 1e6 /
                 (kClients * traced_s),
             "ratio");
  // The end-to-end figure is the untraced mean round trip; the layers are
  // handling, codec and the transport as a PING measures it.
  AddCommonMetrics(options, setup_s, rtt_sum_ns / requests, Mean(traced_rtt),
                   (handle_us + codec_us + ping_us) * 1e3,
                   /*tolerance=*/0.30, &result);
  return result;
}

}  // namespace perfbench

// The session server stack: wire codec, session lifecycle, the
// multi-tenant isolation property (concurrent sessions' emission streams
// byte-identical to standalone engines; saturating one session never
// degrades another), the in-proc transport, and a TCP loopback smoke.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "asp/parser.h"
#include "server/server.h"
#include "server/session.h"
#include "server/tcp.h"
#include "server/wire.h"
#include "stream/generator.h"
#include "streamrule/answer.h"
#include "streamrule/engine.h"
#include "streamrule/traffic_workload.h"
#include "thread_count.h"

namespace streamasp {
namespace {

// ---------------------------------------------------------------------------
// Wire codec.
// ---------------------------------------------------------------------------

TEST(WireTest, FrameRoundTrip) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame("hello"));
  decoder.Feed(EncodeFrame(""));
  decoder.Feed(EncodeFrame("ping\nline2"));
  std::string payload;
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "hello");
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "ping\nline2");
  EXPECT_FALSE(decoder.Next(&payload));
  EXPECT_TRUE(decoder.status().ok());
}

TEST(WireTest, FrameDecoderHandlesSplitFeeds) {
  const std::string frame = EncodeFrame("split across many feeds");
  FrameDecoder decoder;
  std::string payload;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.Feed(std::string_view(&frame[i], 1));
    EXPECT_FALSE(decoder.Next(&payload));
  }
  decoder.Feed(std::string_view(&frame.back(), 1));
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "split across many feeds");
}

TEST(WireTest, FrameDecoderWedgesOnOversizedFrame) {
  std::string huge_header;
  huge_header.push_back(static_cast<char>(0x7f));  // 0x7fffffff >> limit.
  huge_header.push_back(static_cast<char>(0xff));
  huge_header.push_back(static_cast<char>(0xff));
  huge_header.push_back(static_cast<char>(0xff));
  FrameDecoder decoder;
  decoder.Feed(huge_header);
  std::string payload;
  EXPECT_FALSE(decoder.Next(&payload));
  EXPECT_EQ(decoder.status().code(), StatusCode::kInvalidArgument);
  // Wedged: even a well-formed follow-up frame is refused.
  decoder.Feed(EncodeFrame("ping"));
  EXPECT_FALSE(decoder.Next(&payload));
}

TEST(WireTest, ParsesOpenWithOptionsAndProgram) {
  auto request = ParseRequest(
      "open s1 window=100 slide=25 shards=2 async=1 inflight=3 workers=2 "
      "reuse=solve queue=5 admission=reject\n"
      "a(X) :- b(X).\n"
      "#input b/1.");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->command, WireRequest::Command::kOpen);
  EXPECT_EQ(request->session, "s1");
  const SessionOptions& options = request->options;
  EXPECT_EQ(options.engine.pipeline.window_size, 100u);
  EXPECT_EQ(options.engine.pipeline.window_slide, 25u);
  EXPECT_EQ(options.engine.num_shards, 2u);
  EXPECT_TRUE(options.engine.pipeline.async);
  EXPECT_EQ(options.engine.pipeline.max_inflight_windows, 3u);
  EXPECT_EQ(options.engine.pipeline.num_reason_workers, 2u);
  EXPECT_TRUE(options.engine.pipeline.reuse_solving);
  EXPECT_EQ(options.ingest_queue_capacity, 5u);
  EXPECT_EQ(options.admission, BackpressurePolicy::kReject);
  EXPECT_EQ(options.program_text, "a(X) :- b(X).\n#input b/1.");
}

TEST(WireTest, ParseRequestRejectsMalformedInput) {
  EXPECT_EQ(ParseRequest("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("warble s1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("push").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 window").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 window=abc").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 admission=drop").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 reuse=maybe").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 color=red").status().code(),
            StatusCode::kInvalidArgument);
  // The sharded router no longer batches, so batch= is an unknown key.
  EXPECT_EQ(ParseRequest("open s1 batch=64").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, ParsesVersionAndFairnessOptions) {
  auto request = ParseRequest(
      "open s1 window=100 async=1 inflight=3 weight=4 max_queued=8 "
      "max_inflight=2 v=1\n"
      "a(X) :- b(X).\n#input b/1.");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->options.weight, 4u);
  EXPECT_EQ(request->options.max_queued_windows, 8u);
  EXPECT_EQ(request->options.max_inflight, 2u);
  EXPECT_TRUE(request->has_version);
  EXPECT_EQ(request->protocol_version, kProtocolVersion);

  // Version is optional: v0-era clients that send no `v` still parse.
  auto unversioned = ParseRequest("open s2 window=10\np(a).");
  ASSERT_TRUE(unversioned.ok()) << unversioned.status();
  EXPECT_FALSE(unversioned->has_version);
}

TEST(WireTest, RejectsMalformedFairnessAndVersionOptions) {
  EXPECT_EQ(ParseRequest("open s1 weight=0").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 weight=abc").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 max_queued=-1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 max_inflight=x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 v=abc").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, ErrorRepliesCarryMachineReadableCodes) {
  EXPECT_EQ(ErrorCodeSlug(StatusCode::kNotFound), "unknown_session");
  EXPECT_EQ(ErrorCodeSlug(StatusCode::kResourceExhausted), "quota_exceeded");
  EXPECT_EQ(ErrorCodeSlug(StatusCode::kInvalidArgument), "invalid_argument");
  EXPECT_EQ(ErrorCodeSlug(StatusCode::kFailedPrecondition),
            "failed_precondition");

  const std::string not_found =
      FormatError("push", "ghost", NotFoundError("session 'ghost' not found"));
  EXPECT_EQ(not_found.rfind("error push ghost code=unknown_session ", 0), 0u)
      << not_found;
  const std::string custom = FormatError(
      "open", "s", InvalidArgumentError("unsupported protocol version v=9"),
      "unsupported_version");
  EXPECT_EQ(custom.rfind("error open s code=unsupported_version ", 0), 0u)
      << custom;
  EXPECT_EQ(FormatOpenOk("s1"), "ok open s1 v=1");
}

TEST(WireTest, ParsesTripleLines) {
  SymbolTablePtr symbols = MakeSymbolTable();
  auto unary = ParseTripleLine("traffic_light j1", *symbols);
  ASSERT_TRUE(unary.ok()) << unary.status();
  EXPECT_EQ(unary->predicate, symbols->Intern("traffic_light"));
  EXPECT_EQ(unary->subject, PackedTerm::Symbol(symbols->Intern("j1")));

  auto binary = ParseTripleLine("average_speed j1 17", *symbols);
  ASSERT_TRUE(binary.ok()) << binary.status();
  EXPECT_EQ(binary->object, PackedTerm::Integer(17));

  EXPECT_EQ(ParseTripleLine("lonely", *symbols).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTripleLine("a b c d", *symbols).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Session lifecycle.
// ---------------------------------------------------------------------------

class SessionTest : public ::testing::Test {
 protected:
  SessionOptions TrafficOptions(size_t window_size) {
    SessionOptions options;
    options.program_text =
        TrafficProgramText(TrafficProgramVariant::kPPrime, /*with_show=*/true);
    options.engine.pipeline.window_size = window_size;
    return options;
  }

  std::vector<Triple> MakeStream(StreamSession& session, size_t items,
                                 uint64_t seed = 11) {
    GeneratorOptions options;
    options.seed = seed;
    SyntheticStreamGenerator generator(MakeTrafficSchema(session.symbols()),
                                       options);
    return generator.GenerateWindow(items);
  }
};

TEST_F(SessionTest, CreateRejectsBadInput) {
  auto handler = [](const SessionEvent&) {};
  EXPECT_FALSE(
      StreamSession::Create("", TrafficOptions(100), handler).ok());

  SessionOptions bad_program = TrafficOptions(100);
  bad_program.program_text = "this is not asp ((";
  EXPECT_FALSE(StreamSession::Create("s", bad_program, handler).ok());

  SessionOptions drop_oldest = TrafficOptions(100);
  drop_oldest.admission = BackpressurePolicy::kDropOldest;
  auto session = StreamSession::Create("s", drop_oldest, handler);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);

  SessionOptions bad_engine = TrafficOptions(100);
  bad_engine.engine.pipeline.async = true;
  bad_engine.engine.pipeline.max_inflight_windows = 0;
  EXPECT_FALSE(StreamSession::Create("s", bad_engine, handler).ok());
}

TEST_F(SessionTest, FlushIsALiveBarrier) {
  uint64_t results = 0;
  auto session = StreamSession::Create(
      "flushy", TrafficOptions(300), [&](const SessionEvent& event) {
        if (event.event.kind == EmissionEvent::Kind::kResult) ++results;
      });
  ASSERT_TRUE(session.ok()) << session.status();

  ASSERT_TRUE((*session)->Push(MakeStream(**session, 900)).ok());
  ASSERT_TRUE((*session)->Flush().ok());
  // 900 items / 300 window: two full windows + the flushed partial... the
  // stream is exactly 3 windows, all delivered before Flush returned.
  EXPECT_EQ(results, 3u);
  EXPECT_EQ((*session)->state(), SessionState::kRunning);

  // The session stays usable after a flush.
  ASSERT_TRUE((*session)->Push(MakeStream(**session, 300, 12)).ok());
  ASSERT_TRUE((*session)->Flush().ok());
  EXPECT_EQ(results, 4u);

  const SessionStats stats = (*session)->stats();
  EXPECT_EQ(stats.pushed_batches, 2u);
  EXPECT_EQ(stats.pushed_items, 1200u);
  EXPECT_EQ(stats.result_events, 4u);
  EXPECT_EQ(stats.engine.delivered_windows, 4u);
  EXPECT_EQ(stats.engine.completeness(), 1.0);
  (*session)->Close();
}

TEST_F(SessionTest, CloseDrainsInFlightWindows) {
  SessionOptions options = TrafficOptions(400);
  options.engine.pipeline.async = true;
  options.engine.pipeline.max_inflight_windows = 4;
  uint64_t results = 0;
  auto session = StreamSession::Create(
      "drainy", options, [&](const SessionEvent& event) {
        if (event.event.kind == EmissionEvent::Kind::kResult) ++results;
      });
  ASSERT_TRUE(session.ok()) << session.status();

  // Queue six windows' worth and close immediately: every admitted batch
  // must still be windowed, reasoned, and delivered before kClosed.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE((*session)->Push(MakeStream(**session, 400, 20 + i)).ok());
  }
  (*session)->Close();
  EXPECT_EQ((*session)->state(), SessionState::kClosed);
  EXPECT_EQ(results, 6u);
  // Engine counters are gone after close (the engine is torn down); the
  // session's own delivery counters survive.
  EXPECT_EQ((*session)->stats().result_events, 6u);
}

TEST_F(SessionTest, PushAndFlushRefusedAfterClose) {
  auto session = StreamSession::Create("closed", TrafficOptions(100),
                                       [](const SessionEvent&) {});
  ASSERT_TRUE(session.ok()) << session.status();
  (*session)->Close();
  EXPECT_EQ((*session)->Push(MakeStream(**session, 10)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->Flush().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SessionTest, CloseIsIdempotentAndConcurrent) {
  auto session = StreamSession::Create("multi-close", TrafficOptions(200),
                                       [](const SessionEvent&) {});
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE((*session)->Push(MakeStream(**session, 600)).ok());

  std::vector<std::thread> closers;
  for (int i = 0; i < 4; ++i) {
    closers.emplace_back([&session] { (*session)->Close(); });
  }
  for (std::thread& t : closers) t.join();
  EXPECT_EQ((*session)->state(), SessionState::kClosed);
  (*session)->Close();  // And once more, after the fact.
  EXPECT_EQ((*session)->state(), SessionState::kClosed);
}

// ---------------------------------------------------------------------------
// Server registry.
// ---------------------------------------------------------------------------

TEST(ServerTest, RegistryLifecycle) {
  ServerConfig server_config;
  server_config.max_sessions = 2;
  StreamServer server(server_config);
  SessionOptions options;
  options.program_text = "a(X) :- b(X).\n#input b/1.\n#show a/1.";
  options.engine.pipeline.window_size = 4;

  auto handler = [](const SessionEvent&) {};
  auto first = server.CreateSession("one", options, handler);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(server.num_sessions(), 1u);

  auto duplicate = server.CreateSession("one", options, handler);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kInvalidArgument);

  auto second = server.CreateSession("two", options, handler);
  ASSERT_TRUE(second.ok()) << second.status();
  auto third = server.CreateSession("three", options, handler);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);

  EXPECT_TRUE(server.FindSession("one").ok());
  EXPECT_EQ(server.FindSession("nope").status().code(),
            StatusCode::kNotFound);

  EXPECT_TRUE(server.CloseSession("one").ok());
  EXPECT_EQ((*first)->state(), SessionState::kClosed);
  EXPECT_EQ(server.CloseSession("one").code(), StatusCode::kNotFound);
  EXPECT_EQ(server.num_sessions(), 1u);

  server.CloseAll();
  EXPECT_EQ(server.num_sessions(), 0u);
  EXPECT_EQ((*second)->state(), SessionState::kClosed);
}

TEST(ServerTest, ValidateSessionOptionsTable) {
  struct Case {
    const char* name;
    void (*mutate)(SessionOptions&);
    const char* message;  // nullptr => valid.
  };
  const Case kCases[] = {
      {"defaults", [](SessionOptions&) {}, nullptr},
      {"weighted-async",
       [](SessionOptions& o) {
         o.engine.pipeline.async = true;
         o.engine.pipeline.max_inflight_windows = 2;
         o.weight = 4;
         o.max_inflight = 2;
         o.max_queued_windows = 8;
       },
       nullptr},
      {"drop-oldest-admission",
       [](SessionOptions& o) { o.admission = BackpressurePolicy::kDropOldest; },
       "session admission supports kBlock or kReject only"},
      {"zero-weight", [](SessionOptions& o) { o.weight = 0; },
       "session weight must be >= 1"},
      {"quota-without-async",
       [](SessionOptions& o) { o.max_queued_windows = 4; },
       "session max_queued_windows requires an async engine"},
      {"inflight-without-async",
       [](SessionOptions& o) { o.max_inflight = 2; },
       "session max_inflight requires an async engine"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    SessionOptions options;
    options.program_text = "a(X) :- b(X).\n#input b/1.";
    c.mutate(options);
    const Status status = ValidateSessionOptions(options);
    if (c.message == nullptr) {
      EXPECT_TRUE(status.ok()) << status;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(status.ToString().find(c.message), std::string::npos)
          << status;
    }
  }
}

TEST(ServerTest, ValidateServerConfigTable) {
  ServerConfig valid;
  EXPECT_TRUE(ValidateServerConfig(valid).ok());
  ServerConfig no_pool;
  no_pool.shared_pool_threads = 0;  // Dedicated-thread sessions: allowed.
  EXPECT_TRUE(ValidateServerConfig(no_pool).ok());

  ServerConfig zero_sessions;
  zero_sessions.max_sessions = 0;
  const Status status = ValidateServerConfig(zero_sessions);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("max_sessions must be >= 1"),
            std::string::npos)
      << status;
}

// ---------------------------------------------------------------------------
// Isolation property: concurrent multi-tenant emission streams are
// byte-identical to standalone engines over the same batches, across
// randomized push interleavings; saturating one session's admission
// budget never degrades another session's completeness.
// ---------------------------------------------------------------------------

struct TenantSpec {
  const char* name;
  TrafficProgramVariant variant;
  size_t window_size;
  bool async;
  size_t window_slide;
  bool reuse_grounding;
  uint64_t stream_seed;
};

std::string RenderEmission(const EmissionEvent& event,
                           const SymbolTable& symbols) {
  std::string out = "#" + std::to_string(event.sequence);
  switch (event.kind) {
    case EmissionEvent::Kind::kResult:
      out += " result items=" + std::to_string(event.window->items.size());
      for (const GroundAnswer& answer : event.result->answers) {
        out += "\n  " + AnswerToString(answer, symbols);
      }
      break;
    case EmissionEvent::Kind::kError:
      out += " error " + event.status.ToString();
      break;
    case EmissionEvent::Kind::kShed:
      out += " shed items=" + std::to_string(event.window->items.size());
      break;
  }
  out += "\n";
  return out;
}

SessionOptions TenantOptions(const TenantSpec& spec) {
  SessionOptions options;
  options.program_text =
      TrafficProgramText(spec.variant, /*with_show=*/true);
  options.engine.pipeline.window_size = spec.window_size;
  options.engine.pipeline.window_slide = spec.window_slide;
  options.engine.pipeline.async = spec.async;
  options.engine.pipeline.reuse_grounding = spec.reuse_grounding;
  return options;
}

// The standalone oracle: parse the same program text into a fresh symbol
// table, generate the same deterministic batches, drive a bare
// StreamEngine, and render the transcript the same way. Symbol ids may
// differ between tables, but the rendered bytes must not.
std::string OracleTranscript(const TenantSpec& spec, size_t batches,
                             size_t batch_items) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program =
      parser.ParseProgram(TrafficProgramText(spec.variant, true));
  EXPECT_TRUE(program.ok()) << program.status();

  std::string transcript;
  const SessionOptions options = TenantOptions(spec);
  auto engine = StreamEngine::Create(
      &*program, options.engine, [&](EmissionEvent& event) {
        transcript += RenderEmission(event, *symbols);
      });
  EXPECT_TRUE(engine.ok()) << engine.status();

  GeneratorOptions generator_options;
  generator_options.seed = spec.stream_seed;
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols),
                                     generator_options);
  for (size_t i = 0; i < batches; ++i) {
    (*engine)->PushBatch(generator.GenerateWindow(batch_items));
  }
  (*engine)->Flush();
  return transcript;
}

TEST(IsolationTest, ConcurrentSessionsMatchStandaloneEngines) {
  const TenantSpec kTenants[] = {
      {"tumbling-sync", TrafficProgramVariant::kP, 500, false, 0, false, 101},
      {"async", TrafficProgramVariant::kPPrime, 500, true, 0, false, 202},
      {"sliding-reuse", TrafficProgramVariant::kPPrime, 600, false, 200, true,
       303},
  };
  constexpr size_t kBatches = 8;
  constexpr size_t kBatchItems = 250;

  for (uint64_t round_seed : {1u, 2u, 3u}) {
    StreamServer server;
    struct Tenant {
      std::shared_ptr<StreamSession> session;
      std::string transcript;
      std::vector<std::vector<Triple>> batches;
    };
    std::vector<std::unique_ptr<Tenant>> tenants;

    for (const TenantSpec& spec : kTenants) {
      auto tenant = std::make_unique<Tenant>();
      Tenant* raw = tenant.get();
      auto session = server.CreateSession(
          spec.name, TenantOptions(spec), [raw](const SessionEvent& event) {
            raw->transcript += RenderEmission(event.event, event.symbols);
          });
      ASSERT_TRUE(session.ok()) << spec.name << ": " << session.status();
      tenant->session = *session;

      // The same deterministic batches the oracle will regenerate.
      GeneratorOptions generator_options;
      generator_options.seed = spec.stream_seed;
      SyntheticStreamGenerator generator(
          MakeTrafficSchema(tenant->session->symbols()), generator_options);
      for (size_t i = 0; i < kBatches; ++i) {
        tenant->batches.push_back(generator.GenerateWindow(kBatchItems));
      }
      tenants.push_back(std::move(tenant));
    }

    // One pusher thread per tenant, with seeded random jitter so every
    // round interleaves the sessions' pushes differently.
    std::vector<std::thread> pushers;
    for (size_t t = 0; t < tenants.size(); ++t) {
      Tenant* tenant = tenants[t].get();
      const uint64_t jitter_seed = round_seed * 97 + t;
      pushers.emplace_back([tenant, jitter_seed] {
        std::mt19937 rng(jitter_seed);
        for (const std::vector<Triple>& batch : tenant->batches) {
          for (int spin = rng() % 5; spin > 0; --spin) {
            std::this_thread::yield();
          }
          Status status = tenant->session->Push(batch);
          EXPECT_TRUE(status.ok()) << status;
        }
        EXPECT_TRUE(tenant->session->Flush().ok());
      });
    }
    for (std::thread& pusher : pushers) pusher.join();
    // Snapshot while running: engine counters vanish when a session
    // closes (the engine is torn down).
    std::vector<SessionStats> snapshots;
    for (const std::unique_ptr<Tenant>& tenant : tenants) {
      snapshots.push_back(tenant->session->stats());
    }
    server.CloseAll();

    for (size_t t = 0; t < tenants.size(); ++t) {
      SCOPED_TRACE(std::string(kTenants[t].name) + " round " +
                   std::to_string(round_seed));
      const std::string oracle =
          OracleTranscript(kTenants[t], kBatches, kBatchItems);
      EXPECT_FALSE(oracle.empty());
      EXPECT_EQ(tenants[t]->transcript, oracle);
      EXPECT_EQ(snapshots[t].engine.completeness(), 1.0);
      EXPECT_EQ(snapshots[t].rejected_batches, 0u);
    }
  }
}

TEST(IsolationTest, SaturatingOneSessionNeverDegradesAnother) {
  StreamServer server;

  // The greedy tenant: a one-batch admission budget with kReject, pushed
  // far faster than its pump can reason 400-item windows.
  TenantSpec greedy_spec = {"greedy", TrafficProgramVariant::kPPrime, 400,
                            false, 0, false, 404};
  SessionOptions greedy_options = TenantOptions(greedy_spec);
  greedy_options.ingest_queue_capacity = 1;
  greedy_options.admission = BackpressurePolicy::kReject;
  auto greedy = server.CreateSession("greedy", greedy_options,
                                     [](const SessionEvent&) {});
  ASSERT_TRUE(greedy.ok()) << greedy.status();

  // The steady tenant: modest load, lossless, its own engine and pump.
  TenantSpec steady_spec = {"steady", TrafficProgramVariant::kP, 500, false,
                            0, false, 505};
  std::string steady_transcript;
  auto steady = server.CreateSession(
      "steady", TenantOptions(steady_spec), [&](const SessionEvent& event) {
        steady_transcript += RenderEmission(event.event, event.symbols);
      });
  ASSERT_TRUE(steady.ok()) << steady.status();

  constexpr size_t kSteadyBatches = 6;
  constexpr size_t kSteadyItems = 250;
  std::thread steady_pusher([&] {
    GeneratorOptions generator_options;
    generator_options.seed = steady_spec.stream_seed;
    SyntheticStreamGenerator generator(
        MakeTrafficSchema((*steady)->symbols()), generator_options);
    for (size_t i = 0; i < kSteadyBatches; ++i) {
      Status status = (*steady)->Push(generator.GenerateWindow(kSteadyItems));
      EXPECT_TRUE(status.ok()) << status;
    }
    EXPECT_TRUE((*steady)->Flush().ok());
  });

  // Hammer the greedy session until its admission budget refuses pushes
  // (bounded — 400 window-sized batches vastly outrun one pump).
  GeneratorOptions generator_options;
  generator_options.seed = greedy_spec.stream_seed;
  SyntheticStreamGenerator generator(MakeTrafficSchema((*greedy)->symbols()),
                                     generator_options);
  uint64_t rejected = 0;
  for (int i = 0; i < 400 && rejected < 8; ++i) {
    Status status = (*greedy)->Push(generator.GenerateWindow(400));
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u) << "greedy session never saturated";

  steady_pusher.join();
  // Snapshot before closing — engine counters are torn down with the
  // engine.
  const SessionStats greedy_stats = (*greedy)->stats();
  const SessionStats steady_stats = (*steady)->stats();
  server.CloseAll();

  EXPECT_EQ(greedy_stats.rejected_batches, rejected);
  EXPECT_GT(greedy_stats.rejected_items, 0u);

  // The steady tenant saw full-fidelity service: nothing rejected,
  // nothing shed, emissions byte-identical to a standalone engine.
  EXPECT_EQ(steady_stats.rejected_batches, 0u);
  EXPECT_EQ(steady_stats.shed_events, 0u);
  EXPECT_EQ(steady_stats.engine.completeness(), 1.0);
  EXPECT_EQ(steady_transcript,
            OracleTranscript(steady_spec, kSteadyBatches, kSteadyItems));
}

// ---------------------------------------------------------------------------
// Shared reasoner pool: pooled sessions stay byte-identical to standalone
// oracles, a saturating weight-1 tenant cannot starve a weight-4 tenant,
// per-session quotas shed with full accounting, and 64 sessions cost
// O(pool + 1) threads instead of O(sessions).
// ---------------------------------------------------------------------------

TEST(SharedPoolServerTest, PooledSessionsMatchStandaloneOracles) {
  ServerConfig config;
  config.shared_pool_threads = 4;
  StreamServer server(config);
  ASSERT_NE(server.shared_pool(), nullptr);

  const TenantSpec kTenants[] = {
      {"pool-a", TrafficProgramVariant::kPPrime, 500, true, 0, false, 606},
      {"pool-b", TrafficProgramVariant::kP, 400, true, 0, false, 707},
      {"pool-c", TrafficProgramVariant::kPPrime, 600, true, 0, true, 808},
  };
  const size_t kWeights[] = {1, 4, 2};
  constexpr size_t kBatches = 6;
  constexpr size_t kBatchItems = 250;

  struct Tenant {
    std::shared_ptr<StreamSession> session;
    std::string transcript;
  };
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (size_t t = 0; t < 3; ++t) {
    auto tenant = std::make_unique<Tenant>();
    Tenant* raw = tenant.get();
    SessionOptions options = TenantOptions(kTenants[t]);
    options.weight = kWeights[t];
    auto session = server.CreateSession(
        kTenants[t].name, options, [raw](const SessionEvent& event) {
          raw->transcript += RenderEmission(event.event, event.symbols);
        });
    ASSERT_TRUE(session.ok()) << kTenants[t].name << ": " << session.status();
    tenant->session = *session;
    tenants.push_back(std::move(tenant));
  }

  std::vector<std::thread> pushers;
  for (size_t t = 0; t < tenants.size(); ++t) {
    Tenant* tenant = tenants[t].get();
    const TenantSpec& spec = kTenants[t];
    pushers.emplace_back([tenant, &spec] {
      GeneratorOptions generator_options;
      generator_options.seed = spec.stream_seed;
      SyntheticStreamGenerator generator(
          MakeTrafficSchema(tenant->session->symbols()), generator_options);
      for (size_t i = 0; i < kBatches; ++i) {
        Status status =
            tenant->session->Push(generator.GenerateWindow(kBatchItems));
        EXPECT_TRUE(status.ok()) << status;
      }
      EXPECT_TRUE(tenant->session->Flush().ok());
    });
  }
  for (std::thread& pusher : pushers) pusher.join();

  std::vector<SessionStats> snapshots;
  for (const auto& tenant : tenants) {
    snapshots.push_back(tenant->session->stats());
  }
  server.CloseAll();

  for (size_t t = 0; t < tenants.size(); ++t) {
    SCOPED_TRACE(kTenants[t].name);
    const std::string oracle =
        OracleTranscript(kTenants[t], kBatches, kBatchItems);
    EXPECT_FALSE(oracle.empty());
    EXPECT_EQ(tenants[t]->transcript, oracle);
    EXPECT_EQ(snapshots[t].engine.completeness(), 1.0);
    EXPECT_EQ(snapshots[t].rejected_batches, 0u);
    EXPECT_EQ(snapshots[t].shed_events, 0u);
  }
}

TEST(SharedPoolServerTest, SaturatingTenantCannotStarveWeightedTenant) {
  // Two workers, contended: greedy (weight 1) keeps a 32-window backlog
  // while steady (weight 4) runs Push+Flush rounds. DRR must keep
  // steady's per-window latency bounded and its stream lossless.
  ServerConfig config;
  config.shared_pool_threads = 2;
  StreamServer server(config);

  TenantSpec greedy_spec = {"greedy", TrafficProgramVariant::kPPrime, 400,
                            true,     0,
                            false,    404};
  SessionOptions greedy_options = TenantOptions(greedy_spec);
  greedy_options.engine.pipeline.max_inflight_windows = 32;
  greedy_options.weight = 1;
  greedy_options.max_inflight = 1;
  auto greedy = server.CreateSession("greedy", greedy_options,
                                     [](const SessionEvent&) {});
  ASSERT_TRUE(greedy.ok()) << greedy.status();

  TenantSpec steady_spec = {"steady", TrafficProgramVariant::kP, 300, true, 0,
                            false,    505};
  SessionOptions steady_options = TenantOptions(steady_spec);
  steady_options.weight = 4;
  std::string steady_transcript;
  auto steady = server.CreateSession(
      "steady", steady_options, [&](const SessionEvent& event) {
        steady_transcript += RenderEmission(event.event, event.symbols);
      });
  ASSERT_TRUE(steady.ok()) << steady.status();

  std::atomic<bool> stop{false};
  std::thread greedy_pusher([&] {
    GeneratorOptions generator_options;
    generator_options.seed = greedy_spec.stream_seed;
    SyntheticStreamGenerator generator(
        MakeTrafficSchema((*greedy)->symbols()), generator_options);
    while (!stop.load(std::memory_order_acquire)) {
      // kBlock admission: backpressures this thread once the 32-window
      // backlog is full — exactly the saturation we want.
      Status status = (*greedy)->Push(generator.GenerateWindow(400));
      if (!status.ok()) break;
    }
  });

  constexpr size_t kSteadyRounds = 12;
  std::vector<double> latencies_ms;
  {
    GeneratorOptions generator_options;
    generator_options.seed = steady_spec.stream_seed;
    SyntheticStreamGenerator generator(
        MakeTrafficSchema((*steady)->symbols()), generator_options);
    for (size_t i = 0; i < kSteadyRounds; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      ASSERT_TRUE((*steady)->Push(generator.GenerateWindow(300)).ok());
      ASSERT_TRUE((*steady)->Flush().ok());
      latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
  }

  // Snapshot while the greedy tenant is still hammering: it must have a
  // real backlog (we were genuinely contended) yet never be starved.
  const SessionStats greedy_mid = (*greedy)->stats();
  stop.store(true, std::memory_order_release);
  greedy_pusher.join();
  const SessionStats steady_stats = (*steady)->stats();
  server.CloseAll();

  EXPECT_GT(greedy_mid.engine.reasoning.enqueued_windows,
            greedy_mid.engine.delivered_windows)
      << "greedy tenant never built a backlog — the pool was not contended";
  EXPECT_GT(greedy_mid.engine.delivered_windows, 0u)
      << "weight-1 tenant was fully starved";

  // p99 (== max over 12 rounds) stays under a deliberately generous
  // bound that still catches actual starvation (an unweighted queue
  // would park steady behind ~32 greedy windows per round).
  const double worst = *std::max_element(latencies_ms.begin(),
                                         latencies_ms.end());
  EXPECT_LT(worst, 15000.0) << "steady tenant p99 unbounded under load";

  EXPECT_EQ(steady_stats.rejected_batches, 0u);
  EXPECT_EQ(steady_stats.shed_events, 0u);
  EXPECT_EQ(steady_stats.engine.completeness(), 1.0);
  EXPECT_EQ(steady_transcript,
            OracleTranscript(steady_spec, kSteadyRounds, 300));
}

TEST(SharedPoolServerTest, SixtyFourSessionsCostPoolPlusLoopThreads) {
  ServerConfig config;
  config.shared_pool_threads = 2;
  config.max_sessions = 128;
  StreamServer server(config);

  SessionOptions options;
  options.program_text = "a(X) :- b(X).\n#input b/1.\n#show a/1.";
  options.engine.pipeline.window_size = 4;
  options.engine.pipeline.async = true;
  options.engine.pipeline.max_inflight_windows = 2;

  const size_t before = CurrentThreadCount();
  ASSERT_GT(before, 0u) << "/proc/self/status not readable";
  std::atomic<uint64_t> results{0};
  std::vector<std::shared_ptr<StreamSession>> sessions;
  for (int i = 0; i < 64; ++i) {
    auto session = server.CreateSession(
        "tenant-" + std::to_string(i), options,
        [&results](const SessionEvent& event) {
          if (event.event.kind == EmissionEvent::Kind::kResult) ++results;
        });
    ASSERT_TRUE(session.ok()) << session.status();
    sessions.push_back(*session);
  }
  const size_t after = CurrentThreadCount();

  // The whole point of the shared pool: 64 pooled sessions spawn zero
  // threads (the old design cost ~3 threads per async session). Allow a
  // little slack for runtime/test-framework threads.
  EXPECT_LE(after, before + 2)
      << "64 sessions grew the thread count from " << before << " to "
      << after << " — session count is leaking threads again";

  // And they all actually reason: one window through each.
  for (auto& session : sessions) {
    std::vector<Triple> batch;
    for (int i = 0; i < 4; ++i) {
      auto triple =
          ParseTripleLine("b x" + std::to_string(i), session->symbols());
      ASSERT_TRUE(triple.ok()) << triple.status();
      batch.push_back(*triple);
    }
    ASSERT_TRUE(session->Push(std::move(batch)).ok());
    ASSERT_TRUE(session->Flush().ok());
  }
  EXPECT_EQ(results.load(), 64u);
  server.CloseAll();
}

TEST(SharedPoolServerTest, PooledShardedSessionAddsNoThread) {
  // A sharded engine owns no threads: its router runs on the pushing
  // thread and its merge on the pool worker that completes a global
  // window. On the shared pool a shards=2 async=1 session therefore costs
  // no thread, and still matches the unsharded synchronous oracle.
  ServerConfig config;
  config.shared_pool_threads = 2;
  StreamServer server(config);

  const TenantSpec oracle_spec = {"sharded", TrafficProgramVariant::kP,
                                  300,       false,
                                  0,         false,
                                  919};
  SessionOptions options = TenantOptions(oracle_spec);
  options.engine.num_shards = 2;
  options.engine.pipeline.async = true;

  const size_t before = SettledThreadCount();
  ASSERT_GT(before, 0u) << "/proc/self/status not readable";
  std::string transcript;
  auto session = server.CreateSession(
      "sharded", options, [&transcript](const SessionEvent& event) {
        transcript += RenderEmission(event.event, event.symbols);
      });
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_EQ(CurrentThreadCount(), before);

  constexpr size_t kBatches = 5;
  constexpr size_t kBatchItems = 250;
  GeneratorOptions generator_options;
  generator_options.seed = oracle_spec.stream_seed;
  SyntheticStreamGenerator generator(
      MakeTrafficSchema((*session)->symbols()), generator_options);
  for (size_t i = 0; i < kBatches; ++i) {
    ASSERT_TRUE((*session)->Push(generator.GenerateWindow(kBatchItems)).ok());
  }
  ASSERT_TRUE((*session)->Flush().ok());
  EXPECT_EQ(CurrentThreadCount(), before);
  server.CloseAll();

  EXPECT_EQ(transcript,
            OracleTranscript(oracle_spec, kBatches, kBatchItems));
}

TEST_F(SessionTest, QuotaShedsWindowsBeyondMaxQueuedAndAccountsThem) {
  // Pooled quota semantics at the session API: max_queued_windows=1
  // sheds any window that closes while another is still undelivered.
  SessionOptions options = TrafficOptions(200);
  options.engine.pipeline.async = true;
  options.engine.pipeline.max_inflight_windows = 8;
  options.max_queued_windows = 1;

  uint64_t result_events = 0;
  uint64_t shed_events = 0;
  auto session = StreamSession::Create(
      "quota", options, [&](const SessionEvent& event) {
        if (event.event.kind == EmissionEvent::Kind::kResult) ++result_events;
        if (event.event.kind == EmissionEvent::Kind::kShed) ++shed_events;
      });
  ASSERT_TRUE(session.ok()) << session.status();

  constexpr size_t kWindows = 16;
  for (size_t i = 0; i < kWindows; ++i) {
    ASSERT_TRUE((*session)->Push(MakeStream(**session, 200, 40 + i)).ok());
  }
  ASSERT_TRUE((*session)->Flush().ok());
  const SessionStats stats = (*session)->stats();
  (*session)->Close();

  // Conservation: every window is either delivered or shed-with-receipt —
  // the quota degrades gracefully, it never loses windows silently.
  EXPECT_EQ(result_events + shed_events, kWindows);
  EXPECT_GT(shed_events, 0u) << "quota never triggered";
  EXPECT_EQ(stats.shed_events, shed_events);
  EXPECT_EQ(stats.result_events, result_events);
  EXPECT_EQ(stats.engine.delivered_windows, result_events);
  EXPECT_LT(stats.engine.completeness(), 1.0);
  EXPECT_GT(stats.engine.completeness(), 0.0);
}

// ---------------------------------------------------------------------------
// Transports: the in-proc connection and a TCP loopback smoke, both
// speaking the wire protocol end to end.
// ---------------------------------------------------------------------------

/// Collects server→client payloads and lets the test await replies while
/// counting the subscription events that interleave before them.
class PayloadCollector {
 public:
  void Handle(std::string payload) {
    std::lock_guard<std::mutex> lock(mutex_);
    payloads_.push_back(std::move(payload));
    cv_.notify_all();
  }

  /// Pops payloads until a reply ("ok ..."/"error ...") surfaces,
  /// counting "event <session> result ..." payloads along the way.
  std::string AwaitReply() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      while (payloads_.empty()) {
        if (cv_.wait_for(lock, std::chrono::seconds(30)) ==
            std::cv_status::timeout) {
          ADD_FAILURE() << "timed out waiting for a reply";
          return "";
        }
      }
      std::string payload = std::move(payloads_.front());
      payloads_.pop_front();
      if (payload.rfind("event ", 0) == 0) {
        if (payload.find(" result ") != std::string::npos) ++result_events_;
        continue;
      }
      return payload;
    }
  }

  uint64_t result_events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return result_events_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::string> payloads_;
  uint64_t result_events_ = 0;
};

constexpr const char* kTinyProgram =
    "a(X) :- b(X).\n#input b/1.\n#show a/1.";

TEST(TransportTest, InProcConnectionSpeaksTheProtocol) {
  StreamServer server;
  std::unique_ptr<SessionTransport> connection = server.Connect();
  PayloadCollector collector;
  connection->Receive(
      [&collector](std::string payload) { collector.Handle(std::move(payload)); });

  ASSERT_TRUE(connection->Send("ping").ok());
  EXPECT_EQ(collector.AwaitReply(), "ok ping");

  ASSERT_TRUE(
      connection->Send(std::string("open tiny window=4\n") + kTinyProgram)
          .ok());
  EXPECT_EQ(collector.AwaitReply(), "ok open tiny v=1");
  EXPECT_EQ(server.num_sessions(), 1u);

  // Unknown session and malformed requests come back as error replies
  // with machine-readable codes.
  ASSERT_TRUE(connection->Send("push nope\nb x1").ok());
  EXPECT_EQ(
      collector.AwaitReply().rfind("error push nope code=unknown_session", 0),
      0u);
  ASSERT_TRUE(connection->Send("warble").ok());
  EXPECT_EQ(collector.AwaitReply().rfind("error", 0), 0u);

  // Two tumbling windows of four facts each.
  for (int window = 0; window < 2; ++window) {
    std::string push = "push tiny";
    for (int i = 0; i < 4; ++i) {
      push += "\nb x" + std::to_string(window * 4 + i);
    }
    ASSERT_TRUE(connection->Send(push).ok());
    EXPECT_EQ(collector.AwaitReply(), "ok push tiny");
  }
  ASSERT_TRUE(connection->Send("flush tiny").ok());
  EXPECT_EQ(collector.AwaitReply(), "ok flush tiny");
  EXPECT_EQ(collector.result_events(), 2u);

  ASSERT_TRUE(connection->Send("stats tiny").ok());
  const std::string stats = collector.AwaitReply();
  EXPECT_EQ(stats.rfind("ok stats tiny\nstate=running", 0), 0u) << stats;
  EXPECT_NE(stats.find("\ndelivered_windows=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\ndelivered_answers=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\ncompleteness=1"), std::string::npos) << stats;

  ASSERT_TRUE(connection->Send("close tiny").ok());
  EXPECT_EQ(collector.AwaitReply(), "ok close tiny");
  EXPECT_EQ(server.num_sessions(), 0u);

  connection->Close();
  EXPECT_FALSE(connection->Send("ping").ok());
}

TEST(TransportTest, UnknownProtocolVersionIsRejectedCleanly) {
  StreamServer server;
  std::unique_ptr<SessionTransport> connection = server.Connect();
  PayloadCollector collector;
  connection->Receive(
      [&collector](std::string payload) { collector.Handle(std::move(payload)); });

  // A v=2 client is refused before any session state is created...
  ASSERT_TRUE(
      connection->Send(std::string("open vbad window=4 v=2\n") + kTinyProgram)
          .ok());
  const std::string reply = collector.AwaitReply();
  EXPECT_EQ(reply.rfind("error open vbad code=unsupported_version", 0), 0u)
      << reply;
  EXPECT_NE(reply.find("this server speaks v=1"), std::string::npos) << reply;
  EXPECT_EQ(server.num_sessions(), 0u);

  // ...and the connection survives to open a correctly versioned session.
  ASSERT_TRUE(
      connection->Send(std::string("open vgood window=4 v=1\n") + kTinyProgram)
          .ok());
  EXPECT_EQ(collector.AwaitReply(), "ok open vgood v=1");
  EXPECT_EQ(server.num_sessions(), 1u);
  connection->Close();
}

TEST(TransportTest, DroppingTheConnectionClosesItsSessions) {
  StreamServer server;
  std::unique_ptr<SessionTransport> connection = server.Connect();
  PayloadCollector collector;
  connection->Receive(
      [&collector](std::string payload) { collector.Handle(std::move(payload)); });
  ASSERT_TRUE(
      connection->Send(std::string("open orphan window=4\n") + kTinyProgram)
          .ok());
  EXPECT_EQ(collector.AwaitReply(), "ok open orphan v=1");
  ASSERT_TRUE(connection->Send("push orphan\nb x1\nb x2").ok());
  EXPECT_EQ(collector.AwaitReply(), "ok push orphan");
  EXPECT_EQ(server.num_sessions(), 1u);

  // No explicit close: dropping the connection drains and closes the
  // sessions it opened.
  connection->Close();
  EXPECT_EQ(server.num_sessions(), 0u);
}

TEST(TransportTest, TcpLoopbackSmoke) {
  StreamServer server;
  TcpServer tcp(&server, TcpServer::Options{});
  ASSERT_TRUE(tcp.Start().ok());
  ASSERT_GT(tcp.port(), 0);

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(tcp.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  FrameDecoder decoder;
  uint64_t result_events = 0;
  auto send_payload = [fd](std::string_view payload) {
    const std::string frame = EncodeFrame(payload);
    size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = send(fd, frame.data() + sent, frame.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  };
  auto await_reply = [&]() -> std::string {
    std::string payload;
    while (true) {
      while (decoder.Next(&payload)) {
        if (payload.rfind("event ", 0) == 0) {
          if (payload.find(" result ") != std::string::npos) ++result_events;
          continue;
        }
        return payload;
      }
      char buffer[4096];
      const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        ADD_FAILURE() << "server closed the connection";
        return "";
      }
      decoder.Feed(std::string_view(buffer, static_cast<size_t>(n)));
    }
  };

  send_payload("ping");
  EXPECT_EQ(await_reply(), "ok ping");

  send_payload(std::string("open tcp window=3\n") + kTinyProgram);
  EXPECT_EQ(await_reply(), "ok open tcp v=1");

  send_payload("push tcp\nb x1\nb x2\nb x3");
  EXPECT_EQ(await_reply(), "ok push tcp");
  send_payload("flush tcp");
  EXPECT_EQ(await_reply(), "ok flush tcp");
  EXPECT_EQ(result_events, 1u);

  send_payload("stats tcp");
  const std::string stats = await_reply();
  EXPECT_NE(stats.find("\ndelivered_answers=1"), std::string::npos) << stats;

  send_payload("close tcp");
  EXPECT_EQ(await_reply(), "ok close tcp");

  close(fd);
  tcp.Stop();
  EXPECT_EQ(server.num_sessions(), 0u);
}

}  // namespace
}  // namespace streamasp

/**
 * @file
 * Tests for the compile-as-a-service stack: kv codec, crash-safe file
 * helpers, request fingerprints (hash-key completeness), wire framing,
 * the content-addressed cache (eviction, persistence, quarantine), the
 * tenant-fair admission queue and the server end to end.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "circuit/qbin.hpp"
#include "common/fs.hpp"
#include "common/kv.hpp"
#include "common/parallel.hpp"
#include "graph/generators.hpp"
#include "opt/checkpoint.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"

namespace qaoa {
namespace {

using serve::Admission;
using serve::AdmissionQueue;
using serve::CacheEntry;
using serve::CacheLimits;
using serve::CompileCache;
using serve::CompileRequest;
using serve::CompileServer;
using serve::ServeResponse;
using serve::ServerConfig;

std::string
tempDir(const std::string &leaf)
{
    const std::string dir = ::testing::TempDir() + leaf;
    // Fresh directory per test run: remove leftovers from a prior run
    // (std::remove cannot delete a non-empty directory, which would
    // leak stale cache entries into restart tests).
    [[maybe_unused]] const int rc =
        ::system(("rm -rf '" + dir + "'").c_str());
    return dir;
}

CompileRequest
smallRequest(const std::string &id = "r1")
{
    CompileRequest request;
    request.id = id;
    request.problem = graph::cycleGraph(4);
    request.device = "linear6";
    request.method = "ic";
    return request;
}

// ---------------------------------------------------------------- kv --

TEST(KvTest, RoundTripsEscapesAndOrder)
{
    kv::Record rec;
    rec.set("plain", "value");
    rec.set("qasm", "line1\nline2\t\"quoted\"\\end");
    rec.set("empty", "");
    const std::string text = kv::serialize(rec);
    EXPECT_EQ(text.find('\n'), std::string::npos)
        << "serialized record must be one line";
    const kv::Record back = kv::parse(text);
    EXPECT_EQ(back.get("plain"), "value");
    EXPECT_EQ(back.get("qasm"), "line1\nline2\t\"quoted\"\\end");
    EXPECT_EQ(back.get("empty"), "");
    EXPECT_EQ(back.fields().size(), 3u);
    EXPECT_EQ(back.fields()[0].first, "plain");
}

TEST(KvTest, RejectsMalformedDocuments)
{
    EXPECT_THROW(kv::parse(""), std::runtime_error);
    EXPECT_THROW(kv::parse("{\"a\":1}"), std::runtime_error);
    EXPECT_THROW(kv::parse("{\"a\":\"x\"} trailing"), std::runtime_error);
    EXPECT_THROW(kv::parse("{\"a\":\"x\",\"a\":\"y\"}"),
                 std::runtime_error);
    EXPECT_THROW(kv::parse("{\"a\":\"bad\\z\"}"), std::runtime_error);
}

// ------------------------------------------------- atomic writes (S3) --

TEST(FsTest, ConcurrentWritersNeverLeaveTornFile)
{
    const std::string dir = tempDir("qaoa_fs_hammer");
    ASSERT_EQ(0, ::system(("mkdir -p " + dir).c_str()));
    const std::string path = dir + "/slot.json";

    // Two (plus) writers hammer the same content-addressed path with
    // distinct parseable bodies; a reader samples concurrently.  Every
    // observed file must parse — rename(2) publication means no reader
    // can ever see a half-written mixture.
    constexpr int kWriters = 4;
    constexpr int kRounds = 60;
    std::atomic<bool> done{false};
    std::atomic<int> torn{0};

    std::thread reader([&] {
        while (!done.load()) {
            std::string body;
            if (fs::readFile(path, body)) {
                try {
                    const kv::Record rec = kv::parse(body);
                    if (rec.get("payload").size() !=
                        static_cast<std::size_t>(
                            std::stoi(rec.get("size"))))
                        ++torn;
                } catch (const std::exception &) {
                    ++torn;
                }
            }
            std::this_thread::yield();
        }
    });

    par::WorkerGroup writers;
    writers.start(kWriters, [&](int worker) {
        for (int round = 0; round < kRounds; ++round) {
            // Bodies differ per writer/round so a torn mixture of two
            // writes cannot accidentally look consistent.
            const std::string payload(
                static_cast<std::size_t>(64 + 97 * worker + round),
                static_cast<char>('a' + worker));
            kv::Record rec;
            rec.set("size", std::to_string(payload.size()));
            rec.set("payload", payload);
            fs::atomicWriteFile(path, kv::serialize(rec));
        }
    });
    writers.join();
    done.store(true);
    reader.join();

    EXPECT_EQ(torn.load(), 0);
    std::string final_body;
    ASSERT_TRUE(fs::readFile(path, final_body));
    EXPECT_NO_THROW(kv::parse(final_body));
}

TEST(FsTest, WriteFailureSurfacesErrnoDetail)
{
    const std::string path =
        "/nonexistent-qaoa-dir/sub/never/slot.json";
    try {
        fs::atomicWriteFile(path, "body");
        FAIL() << "writing into a missing directory must throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("o such file"),
                  std::string::npos)
            << "message should carry strerror(errno) detail, got: "
            << e.what();
    }

    // The checkpoint writer shares the same helper, so its failures
    // carry the same OS-level detail.
    opt::OptCheckpoint checkpoint;
    try {
        opt::saveCheckpointFile(path, checkpoint);
        FAIL() << "checkpoint save into a missing directory must throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("o such file"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FsTest, RemoveStaleTempFilesSweepsOrphans)
{
    const std::string dir = tempDir("qaoa_fs_sweep");
    ASSERT_EQ(0, ::system(("mkdir -p " + dir).c_str()));
    std::ofstream(dir + "/x.cce.tmp.123.7") << "orphan";
    std::ofstream(dir + "/keep.cce") << "entry";
    EXPECT_EQ(fs::removeStaleTempFiles(dir), 1);
    std::string body;
    EXPECT_FALSE(fs::readFile(dir + "/x.cce.tmp.123.7", body));
    EXPECT_TRUE(fs::readFile(dir + "/keep.cce", body));
}

// ------------------------------------------- fingerprints (S4 + more) --

TEST(FingerprintTest, ServingMetadataDoesNotChangeTheKey)
{
    CompileRequest a = smallRequest("a");
    CompileRequest b = smallRequest("b");
    b.tenant = "other-tenant";
    b.timeout_ms = 1234.0;
    EXPECT_EQ(serve::requestFingerprint(a), serve::requestFingerprint(b));
}

TEST(FingerprintTest, FaultSpecChangesTheKey)
{
    const CompileRequest base = smallRequest();
    const std::string base_key = serve::requestFingerprint(base);

    CompileRequest dead = base;
    dead.faults.dead_qubits = {2};
    EXPECT_NE(serve::requestFingerprint(dead), base_key);

    CompileRequest edge = base;
    edge.faults.disabled_edges = {{0, 1}};
    EXPECT_NE(serve::requestFingerprint(edge), base_key);

    CompileRequest drift = base;
    drift.faults.drift_multiplier = 1.5;
    EXPECT_NE(serve::requestFingerprint(drift), base_key);

    CompileRequest fseed = base;
    fseed.faults.seed = base.faults.seed + 1;
    EXPECT_NE(serve::requestFingerprint(fseed), base_key);
}

TEST(FingerprintTest, RouterOptionsChangeTheKey)
{
    const CompileRequest base = smallRequest();
    const std::string base_key = serve::requestFingerprint(base);

    CompileRequest weight = base;
    weight.lookahead_weight = 0.75;
    EXPECT_NE(serve::requestFingerprint(weight), base_key);

    CompileRequest depth = base;
    depth.lookahead_depth = 5;
    EXPECT_NE(serve::requestFingerprint(depth), base_key);

    CompileRequest seed = base;
    seed.router_seed = base.router_seed + 1;
    EXPECT_NE(serve::requestFingerprint(seed), base_key);
}

TEST(FingerprintTest, EveryCompileFieldChangesTheKey)
{
    const CompileRequest base = smallRequest();
    const std::string base_key = serve::requestFingerprint(base);
    const auto differs = [&](const CompileRequest &r) {
        return serve::requestFingerprint(r) != base_key;
    };

    CompileRequest r = base;
    r.problem = graph::pathGraph(4);
    EXPECT_TRUE(differs(r)) << "problem graph";
    r = base;
    r.device = "ring6";
    EXPECT_TRUE(differs(r)) << "device";
    r = base;
    r.method = "qaim";
    EXPECT_TRUE(differs(r)) << "method";
    r = base;
    r.gammas = {0.9};
    EXPECT_TRUE(differs(r)) << "gammas";
    r = base;
    r.betas = {0.1};
    EXPECT_TRUE(differs(r)) << "betas";
    r = base;
    r.packing_limit = 2;
    EXPECT_TRUE(differs(r)) << "packing_limit";
    r = base;
    r.seed = base.seed + 1;
    EXPECT_TRUE(differs(r)) << "seed";
    r = base;
    r.decompose = !base.decompose;
    EXPECT_TRUE(differs(r)) << "decompose";
    r = base;
    r.peephole = !base.peephole;
    EXPECT_TRUE(differs(r)) << "peephole";
    r = base;
    r.allow_fallbacks = !base.allow_fallbacks;
    EXPECT_TRUE(differs(r)) << "allow_fallbacks";
    r = base;
    r.verify = !base.verify;
    EXPECT_TRUE(differs(r)) << "verify";
    r = base;
    r.analyze_quality = !base.analyze_quality;
    EXPECT_TRUE(differs(r)) << "analyze_quality";
    r = base;
    r.stage_budget_ms = 500.0;
    EXPECT_TRUE(differs(r)) << "stage_budget_ms";
}

TEST(FingerprintTest, WeightPerturbationBeyondSixDigitsChangesTheKey)
{
    // Default ostream precision renders both weights as "0.123457";
    // the canonical form must keep every bit so the collision guard
    // can never bless a stale circuit compiled for the other weight.
    CompileRequest a = smallRequest();
    a.problem = graph::Graph(2);
    a.problem.addEdge(0, 1, 0.1234567);
    CompileRequest b = smallRequest();
    b.problem = graph::Graph(2);
    b.problem.addEdge(0, 1, 0.1234568);
    EXPECT_NE(serve::requestFingerprint(a), serve::requestFingerprint(b));
    EXPECT_NE(serve::canonicalText(a), serve::canonicalText(b));
}

TEST(RequestTest, RecordRoundTripPreservesHighPrecisionWeights)
{
    CompileRequest request = smallRequest("hi-prec");
    request.problem = graph::Graph(2);
    request.problem.addEdge(0, 1, 0.1234567890123456);
    kv::Record rec;
    serve::requestToRecord(request, rec);
    const CompileRequest back =
        serve::requestFromRecord(rec, /*max_nodes=*/16);
    EXPECT_EQ(back.problem.edgeWeight(0, 1),
              request.problem.edgeWeight(0, 1))
        << "wire round trip must be bit-exact";
    EXPECT_EQ(serve::requestFingerprint(back),
              serve::requestFingerprint(request));
}

TEST(RequestTest, RecordRoundTripPreservesFingerprint)
{
    CompileRequest request = smallRequest("round-trip");
    request.tenant = "team-a";
    request.timeout_ms = 750.0;
    request.faults.dead_qubits = {1};
    request.faults.drift_multiplier = 1.25;
    request.lookahead_weight = 0.6;
    request.gammas = {0.7, 0.4};
    request.betas = {0.35, 0.2};

    kv::Record rec;
    serve::requestToRecord(request, rec);
    const CompileRequest back =
        serve::requestFromRecord(rec, /*max_nodes=*/16);
    EXPECT_EQ(back.id, "round-trip");
    EXPECT_EQ(back.tenant, "team-a");
    EXPECT_EQ(back.timeout_ms, 750.0);
    EXPECT_EQ(serve::requestFingerprint(back),
              serve::requestFingerprint(request));
}

TEST(RequestTest, DecoderRejectsBadRequests)
{
    CompileRequest request = smallRequest();
    {
        kv::Record rec;
        serve::requestToRecord(request, rec);
        EXPECT_THROW(serve::requestFromRecord(rec, /*max_nodes=*/3),
                     std::runtime_error)
            << "graph above the node limit";
    }
    {
        CompileRequest bad = request;
        bad.device = "no-such-device";
        kv::Record rec;
        serve::requestToRecord(bad, rec);
        EXPECT_THROW(serve::requestFromRecord(rec), std::runtime_error);
    }
    {
        CompileRequest bad = request;
        bad.method = "no-such-method";
        kv::Record rec;
        serve::requestToRecord(bad, rec);
        EXPECT_THROW(serve::requestFromRecord(rec), std::runtime_error);
    }
}

TEST(RequestTest, DecoderRejectsPackingBelowOne)
{
    // Admission-time check: packing < 1 used to be admitted, compiled
    // with the QAIM fallback instead of the requested method, and
    // cached.
    for (int packing : {0, -3}) {
        CompileRequest request = smallRequest();
        request.packing_limit = packing;
        kv::Record rec;
        serve::requestToRecord(request, rec);
        const StatusOr<CompileRequest> decoded =
            serve::tryRequestFromRecord(rec);
        ASSERT_FALSE(decoded.ok()) << "packing=" << packing;
        EXPECT_EQ(decoded.status().code(), qaoa::ErrorCode::InvalidArgument)
            << "packing=" << packing;
        EXPECT_NE(decoded.status().message().find("packing"),
                  std::string::npos);
    }
}

TEST(RequestTest, DecoderRejectsEmptyItemsInLists)
{
    const auto with_field = [](const std::string &key,
                               const std::string &value) {
        kv::Record rec;
        serve::requestToRecord(smallRequest(), rec);
        rec.set(key, value);
        return rec;
    };
    EXPECT_THROW(serve::requestFromRecord(with_field("dead_qubits", "1,,2")),
                 std::runtime_error)
        << "empty item inside an int list";
    EXPECT_THROW(serve::requestFromRecord(with_field("dead_qubits", "1,2,")),
                 std::runtime_error)
        << "trailing comma in an int list";
    EXPECT_THROW(
        serve::requestFromRecord(with_field("disabled_edges", "0-1,,1-2")),
        std::runtime_error)
        << "empty item inside an edge list";
}

TEST(RequestTest, ListParsersAreTheWireDecoders)
{
    EXPECT_TRUE(serve::parseQubitList("").empty());
    EXPECT_EQ(serve::parseQubitList("3,7,12"), (std::vector<int>{3, 7, 12}));
    EXPECT_THROW((void)serve::parseQubitList("3,,7"), std::runtime_error);
    EXPECT_THROW((void)serve::parseQubitList("3,7,"), std::runtime_error);

    using Edges = std::vector<std::pair<int, int>>;
    EXPECT_TRUE(serve::parseCouplingList("").empty());
    EXPECT_EQ(serve::parseCouplingList("0-1,4-5"), (Edges{{0, 1}, {4, 5}}));
    EXPECT_EQ(serve::parseCouplingList("0-1,"), (Edges{{0, 1}}))
        << "the wire's edge list ignores a trailing comma";
    EXPECT_THROW((void)serve::parseCouplingList("0-1,,4-5"),
                 std::runtime_error);
    EXPECT_THROW((void)serve::parseCouplingList("0-"), std::runtime_error);
    EXPECT_THROW((void)serve::parseCouplingList("-1"), std::runtime_error);
}

TEST(RequestTest, EnvironmentTakesTheBaseCalibrationFromTheFactory)
{
    serve::CompileRequest request = smallRequest();
    request.device = "melbourne";
    const auto daemon = serve::makeEnvironment(request);
    const hw::CalibrationData fig10a =
        hw::melbourneCalibration(daemon->base_map);
    EXPECT_EQ(daemon->calibration().cnotError(0, 1), fig10a.cnotError(0, 1));

    const auto uniform = serve::makeEnvironment(
        request, [](const hw::CouplingMap &m) {
            return hw::CalibrationData(m);
        });
    const hw::CalibrationData plain(uniform->base_map);
    EXPECT_EQ(uniform->calibration().cnotError(0, 1), plain.cnotError(0, 1));
    EXPECT_NE(uniform->calibration().cnotError(0, 1), fig10a.cnotError(0, 1));
    EXPECT_EQ(uniform->usableQubits(), uniform->base_map.numQubits());

    // Faults degrade the factory's calibration, not the default one.
    request.faults.dead_qubits = {3};
    request.faults.drift_multiplier = 2.0;
    const auto faulty = serve::makeEnvironment(
        request, [](const hw::CouplingMap &m) {
            return hw::CalibrationData(m);
        });
    ASSERT_NE(faulty->injector, nullptr);
    EXPECT_EQ(faulty->calibration().cnotError(0, 1),
              2.0 * plain.cnotError(0, 1));
    EXPECT_LT(faulty->usableQubits(), faulty->base_map.numQubits());
}

// ---------------------------------------------------------- protocol --

TEST(ProtocolTest, FramesRoundTripAndEofIsClean)
{
    std::stringstream wire;
    serve::writeFrame(wire, "first");
    serve::writeFrame(wire, "");
    serve::writeFrame(wire, std::string(1000, 'x'));

    std::string payload;
    ASSERT_TRUE(serve::readFrame(wire, payload).ok());
    EXPECT_EQ(payload, "first");
    ASSERT_TRUE(serve::readFrame(wire, payload).ok());
    EXPECT_EQ(payload, "");
    ASSERT_TRUE(serve::readFrame(wire, payload).ok());
    EXPECT_EQ(payload, std::string(1000, 'x'));
    EXPECT_EQ(serve::readFrame(wire, payload).code(),
              qaoa::ErrorCode::EndOfStream)
        << "EOF at a frame boundary is a clean disconnect";
}

TEST(ProtocolTest, TruncationAndOversizeAreStructuredErrors)
{
    {
        std::stringstream wire;
        wire.write("\x00\x00", 2); // Half a length header.
        std::string payload;
        const auto status = serve::readFrame(wire, payload);
        EXPECT_EQ(status.code(), qaoa::ErrorCode::Truncated);
        EXPECT_EQ(status.offset(), 2) << "stopped after 2 header bytes";
    }
    {
        std::stringstream wire;
        serve::writeFrame(wire, "full-frame");
        std::string raw = wire.str();
        raw.resize(raw.size() - 3); // Cut the body short.
        std::stringstream cut(raw);
        std::string payload;
        const auto status = serve::readFrame(cut, payload);
        EXPECT_EQ(status.code(), qaoa::ErrorCode::Truncated);
        EXPECT_EQ(status.offset(), 4 + 10 - 3)
            << "offset counts header + body bytes actually read";
    }
    {
        std::stringstream wire;
        serve::writeFrame(wire, "abcdef");
        std::string payload;
        EXPECT_EQ(serve::readFrame(wire, payload, /*max_bytes=*/3).code(),
                  qaoa::ErrorCode::ResourceExhausted);
    }
    {
        // One truncated length byte: a torn header must surface as a
        // framing error, never read as a clean end-of-stream.
        std::stringstream wire;
        wire.write("\x00", 1);
        std::string payload;
        EXPECT_EQ(serve::readFrame(wire, payload).code(),
                  qaoa::ErrorCode::Truncated);
    }
}

TEST(ProtocolTest, StreamErrorBeforeHeaderIsNotCleanEof)
{
    // A stream that yields zero bytes for a reason other than EOF
    // (here: failbit already set, as after an upstream I/O error) must
    // report an I/O error, not masquerade as a clean disconnect.
    std::stringstream wire;
    serve::writeFrame(wire, "pending");
    wire.setstate(std::ios::failbit);
    std::string payload;
    EXPECT_EQ(serve::readFrame(wire, payload).code(),
              qaoa::ErrorCode::IoError);

    // Whereas repeated reads at a true EOF keep reporting clean
    // disconnect (idempotent for retry loops).
    std::stringstream empty;
    EXPECT_EQ(serve::readFrame(empty, payload).code(),
              qaoa::ErrorCode::EndOfStream);
    EXPECT_EQ(serve::readFrame(empty, payload).code(),
              qaoa::ErrorCode::EndOfStream);
}

TEST(ProtocolTest, ResponseRoundTrips)
{
    ServeResponse r;
    r.type = "result";
    r.id = "req-9";
    r.status = "degraded";
    r.cache_hit = true;
    r.pressure = "elevated";
    circuit::Circuit payload(2);
    payload.add(circuit::Gate::h(0));
    payload.add(circuit::Gate::rz(1, 0.1234567890123456789));
    r.qbin = circuit::qbin::encodeCircuit(payload);
    r.depth = 12;
    r.gate_count = 34;
    r.cx_count = 8;
    r.swap_count = 2;
    r.compile_ms = 4.5;
    r.diagnostics = {"fallback to IC", "admission: elevated"};
    const ServeResponse back =
        serve::decodeResponse(serve::encodeResponse(r));
    EXPECT_EQ(back.type, "result");
    EXPECT_EQ(back.id, "req-9");
    EXPECT_EQ(back.status, "degraded");
    EXPECT_TRUE(back.cache_hit);
    EXPECT_EQ(back.pressure, "elevated");
    EXPECT_EQ(back.qbin, r.qbin)
        << "the binary payload must survive the base64 wire hop "
           "byte-for-byte";
    EXPECT_EQ(back.depth, 12);
    EXPECT_EQ(back.gate_count, 34);
    EXPECT_EQ(back.cx_count, 8);
    EXPECT_EQ(back.swap_count, 2);
    EXPECT_DOUBLE_EQ(back.compile_ms, 4.5);
    ASSERT_EQ(back.diagnostics.size(), 2u);
    EXPECT_EQ(back.diagnostics[1], "admission: elevated");
}

TEST(ProtocolTest, ErrorDiagnosticsRoundTrip)
{
    // Error frames carry the machine-readable classification next to
    // the human-readable detail: the code name and (for framing/decode
    // rejections) the byte offset both survive the wire hop.
    ServeResponse err;
    err.type = "error";
    err.id = "req-3";
    err.error = "qbin: bad magic";
    err.error_code = "malformed";
    err.error_offset = 4;
    const ServeResponse back =
        serve::decodeResponse(serve::encodeResponse(err));
    EXPECT_EQ(back.type, "error");
    EXPECT_EQ(back.id, "req-3");
    EXPECT_EQ(back.error, "qbin: bad magic");
    EXPECT_EQ(back.error_code, "malformed");
    EXPECT_EQ(back.error_offset, 4);

    // Responses without diagnostics keep the fields absent/defaulted —
    // old readers must not trip over keys that are not there.
    ServeResponse ok;
    ok.type = "result";
    ok.id = "req-4";
    const ServeResponse plain =
        serve::decodeResponse(serve::encodeResponse(ok));
    EXPECT_EQ(plain.error_code, "");
    EXPECT_EQ(plain.error_offset, -1);
}

// ------------------------------------------------------------- cache --

CacheEntry
makeEntry(const std::string &key, std::size_t payload_bytes = 16)
{
    // payload_bytes is a sizing knob for the cap tests: build a real
    // circuit of roughly that many encoded bytes (an rz record is 13:
    // opcode + u32 qubit + u64 angle), since the binary persistence
    // path validates the payload as a circuit document.
    circuit::Circuit payload(2);
    for (std::size_t i = 0; i < payload_bytes / 13 + 1; ++i)
        payload.add(circuit::Gate::rz(static_cast<int>(i % 2),
                                      0.5 + static_cast<double>(i)));
    CacheEntry entry;
    entry.key = key;
    entry.canonical = "canon:" + key;
    entry.status = "ok";
    entry.qbin = circuit::qbin::encodeCircuit(payload);
    entry.depth = 3;
    entry.gate_count = 7;
    entry.cx_count = 2;
    entry.swap_count = 1;
    entry.compile_ms = 1.5;
    return entry;
}

TEST(CacheTest, BytesCountsStringHeaderOverhead)
{
    // Every std::string field costs its characters plus the string
    // object itself; the byte-cap accounting must include both for the
    // four top-level strings as well as the diagnostics.
    CacheEntry entry = makeEntry("k");
    entry.diagnostics = {"one", "two"};
    const std::uint64_t chars = entry.key.size() +
                                entry.canonical.size() +
                                entry.status.size() + entry.qbin.size() +
                                entry.diagnostics[0].size() +
                                entry.diagnostics[1].size();
    EXPECT_EQ(entry.bytes(),
              sizeof(CacheEntry) + chars + 6 * sizeof(std::string));
}

TEST(CacheTest, HitRequiresMatchingCanonicalText)
{
    CompileCache cache;
    cache.put(makeEntry("k1"));
    EXPECT_TRUE(cache.get("k1", "canon:k1").has_value());
    EXPECT_FALSE(cache.get("k1", "different canonical").has_value())
        << "a digest collision must degrade to a miss";
    EXPECT_FALSE(cache.get("k2", "canon:k2").has_value());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
}

TEST(CacheTest, LruEvictsColdestAndHitsRefresh)
{
    CacheLimits limits;
    limits.max_entries = 2;
    CompileCache cache(limits, serve::makeLruPolicy());
    cache.put(makeEntry("a"));
    cache.put(makeEntry("b"));
    ASSERT_TRUE(cache.get("a", "canon:a").has_value()); // refresh a
    cache.put(makeEntry("c"));                          // evicts b
    EXPECT_TRUE(cache.get("a", "canon:a").has_value());
    EXPECT_FALSE(cache.get("b", "canon:b").has_value());
    EXPECT_TRUE(cache.get("c", "canon:c").has_value());
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheTest, RefreshReenforcesTheByteCap)
{
    const CacheEntry small_a = makeEntry("a");
    const CacheEntry small_b = makeEntry("b");
    const CacheEntry big_a = makeEntry("a", /*qasm_bytes=*/4096);
    // Both small entries fit together; big_a alone fits, but big_a
    // plus small_b busts the cap — the refresh must evict, not let
    // bytes sit above the limit until the next new-key insert.
    CacheLimits limits;
    limits.max_bytes = big_a.bytes() + small_b.bytes() - 1;
    CompileCache cache(limits, serve::makeLruPolicy());
    cache.put(small_a);
    cache.put(small_b);
    ASSERT_EQ(cache.stats().entries, 2u);
    cache.put(big_a); // refresh of "a" with a larger artifact
    const auto stats = cache.stats();
    EXPECT_LE(stats.bytes, limits.max_bytes);
    EXPECT_EQ(stats.evictions, 1u);
    ASSERT_TRUE(cache.get("a", "canon:a").has_value());
    EXPECT_EQ(cache.get("a", "canon:a")->qbin, big_a.qbin);
    EXPECT_FALSE(cache.get("b", "canon:b").has_value());
}

TEST(CacheTest, FifoIgnoresHits)
{
    CacheLimits limits;
    limits.max_entries = 2;
    CompileCache cache(limits, serve::makeFifoPolicy());
    cache.put(makeEntry("a"));
    cache.put(makeEntry("b"));
    ASSERT_TRUE(cache.get("a", "canon:a").has_value()); // no refresh
    cache.put(makeEntry("c"));                          // evicts a
    EXPECT_FALSE(cache.get("a", "canon:a").has_value());
    EXPECT_TRUE(cache.get("b", "canon:b").has_value());
    EXPECT_TRUE(cache.get("c", "canon:c").has_value());
}

TEST(CacheTest, ByteCapEvictsAndOversizeEntryIsIgnored)
{
    CacheLimits limits;
    limits.max_entries = 100;
    limits.max_bytes = 4096;
    CompileCache cache(limits);
    cache.put(makeEntry("big1", 1500));
    cache.put(makeEntry("big2", 1500));
    cache.put(makeEntry("big3", 1500)); // byte cap evicts big1
    EXPECT_FALSE(cache.get("big1", "canon:big1").has_value());
    EXPECT_TRUE(cache.get("big3", "canon:big3").has_value());
    EXPECT_LE(cache.stats().bytes, limits.max_bytes);

    cache.put(makeEntry("whale", 10000)); // above the whole cap
    EXPECT_FALSE(cache.get("whale", "canon:whale").has_value());
}

TEST(CacheTest, PersistsAndReloadsAcrossInstances)
{
    const std::string dir = tempDir("qaoa_cache_reload");
    {
        CompileCache cache({}, nullptr, dir);
        cache.put(makeEntry("p1"));
        cache.put(makeEntry("p2"));
    }
    CompileCache reloaded({}, nullptr, dir);
    reloaded.loadFromDir();
    EXPECT_EQ(reloaded.stats().loaded, 2u);
    EXPECT_EQ(reloaded.stats().quarantined, 0u);
    const auto hit = reloaded.get("p1", "canon:p1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->qbin, makeEntry("p1").qbin)
        << "the reloaded payload must be byte-identical to what was put";
    EXPECT_EQ(hit->status, "ok");
}

TEST(CacheTest, QuarantinesCorruptEntriesInsteadOfFailing)
{
    const std::string dir = tempDir("qaoa_cache_corrupt");
    {
        CompileCache cache({}, nullptr, dir);
        cache.put(makeEntry("good"));
    }
    // A torn/garbage entry and a mismatched-filename entry.
    std::ofstream(dir + "/deadbeef00000000.cce") << "{\"format\":\"qa";
    std::ofstream(dir + "/wrongname.cce")
        << serve::serializeCacheEntry(makeEntry("other"));
    // And a stale temp file from a killed writer.
    std::ofstream(dir + "/x.cce.tmp.99.1") << "partial";

    CompileCache reloaded({}, nullptr, dir);
    reloaded.loadFromDir();
    EXPECT_EQ(reloaded.stats().loaded, 1u);
    EXPECT_EQ(reloaded.stats().quarantined, 2u);
    EXPECT_TRUE(reloaded.get("good", "canon:good").has_value());

    std::string body;
    EXPECT_TRUE(
        fs::readFile(dir + "/deadbeef00000000.cce.corrupt", body))
        << "corrupt entry should be renamed, not deleted";
    EXPECT_FALSE(fs::readFile(dir + "/x.cce.tmp.99.1", body))
        << "stale temp files are swept on load";
}

TEST(CacheTest, EntrySerializationRejectsWrongFormat)
{
    const CacheEntry entry = makeEntry("k");
    const std::string bytes = serve::serializeCacheEntry(entry);
    EXPECT_TRUE(circuit::qbin::looksLikeQbin(bytes))
        << "entries persist as qbin artifact documents";
    const CacheEntry back = serve::parseCacheEntry(bytes);
    EXPECT_EQ(back.key, "k");
    EXPECT_EQ(back.qbin, entry.qbin);
    // Not qbin at all (the retired v1 text format).
    EXPECT_THROW(
        serve::parseCacheEntry("{\"format\":\"qaoa-serve-cache-v0\"}"),
        std::runtime_error);
    // A valid artifact whose metadata names a different cache format.
    circuit::qbin::Artifact stranger;
    stranger.circuit = entry.qbin;
    stranger.meta.set("format", "qaoa-serve-cache-v999");
    EXPECT_THROW(
        serve::parseCacheEntry(circuit::qbin::encodeArtifact(stranger)),
        std::runtime_error);
    // Every truncation of a valid entry must fail to parse, never
    // yield a partial circuit (the never-load-torn guarantee).
    for (std::size_t len = 0; len < bytes.size(); ++len)
        EXPECT_THROW(serve::parseCacheEntry(bytes.substr(0, len)),
                     std::runtime_error)
            << "prefix of " << len << " bytes parsed";
}

TEST(CacheTest, RetiresLegacyTextEntriesOnLoad)
{
    const std::string dir = tempDir("qaoa_cache_legacy");
    {
        CompileCache cache({}, nullptr, dir);
        cache.put(makeEntry("fresh"));
    }
    // A healthy v1 text entry, as PR 6's cache would have written it:
    // readable, but its decimal angles can't honor the bit-exact
    // contract — it must be retired (not loaded, not quarantined).
    std::ofstream(dir + "/0123456789abcdef.cce")
        << "{\"format\":\"qaoa-serve-cache-v1\",\"key\":"
           "\"0123456789abcdef\",\"canonical\":\"canon:legacy\","
           "\"status\":\"ok\",\"qasm\":\"OPENQASM 2.0;\\n\","
           "\"depth\":\"1\",\"gate_count\":\"1\",\"cx_count\":\"0\","
           "\"swap_count\":\"0\",\"compile_ms\":\"0x1p+0\"}";

    CompileCache reloaded({}, nullptr, dir);
    reloaded.loadFromDir();
    const auto stats = reloaded.stats();
    EXPECT_EQ(stats.loaded, 1u);
    EXPECT_EQ(stats.retired, 1u);
    EXPECT_EQ(stats.quarantined, 0u)
        << "a readable old-format entry is not corruption";
    EXPECT_FALSE(
        reloaded.get("0123456789abcdef", "canon:legacy").has_value());

    std::string body;
    EXPECT_TRUE(
        fs::readFile(dir + "/0123456789abcdef.cce.legacy", body))
        << "legacy entry should be renamed aside, not deleted";
    EXPECT_FALSE(fs::readFile(dir + "/0123456789abcdef.cce", body));
}

TEST(CacheTest, ConcurrentHammerKeepsCapsAndCountersConsistent)
{
    // 8 threads × 200 deterministic (seeded mt19937) put/get ops over a
    // 24-key space against a 6-entry / 4 KiB cache, persisting to disk:
    // every structural invariant the mutex is supposed to protect must
    // hold afterwards, and the TSan lane (preset `tsan`) checks the
    // interleavings themselves.
    const std::string dir = tempDir("qaoa_cache_hammer");
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 200;
    constexpr int kKeys = 24;
    CacheLimits limits;
    limits.max_entries = 6;
    limits.max_bytes = 4096;

    std::vector<CacheEntry> entries;
    for (int k = 0; k < kKeys; ++k)
        entries.push_back(makeEntry("hammer" + std::to_string(k),
                                    /*payload_bytes=*/16 + 13 * (k % 5)));

    std::atomic<std::uint64_t> gets{0};
    std::atomic<std::uint64_t> puts{0};
    {
        CompileCache cache(limits, nullptr, dir);
        par::WorkerGroup group;
        group.start(kThreads, [&](int worker) {
            std::mt19937 rng(static_cast<unsigned>(1234 + worker));
            for (int op = 0; op < kOpsPerThread; ++op) {
                const CacheEntry &e = entries[rng() % kKeys];
                if (rng() % 2 == 0) {
                    cache.put(e);
                    puts.fetch_add(1, std::memory_order_relaxed);
                } else {
                    const auto hit = cache.get(e.key, e.canonical);
                    if (hit.has_value()) {
                        EXPECT_EQ(hit->qbin, e.qbin)
                            << "a hit must return the stored bytes";
                    }
                    gets.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
        group.join();

        const auto stats = cache.stats();
        EXPECT_LE(stats.entries, limits.max_entries);
        EXPECT_LE(stats.bytes, limits.max_bytes);
        EXPECT_EQ(stats.hits + stats.misses, gets.load());
        EXPECT_GE(stats.insertions, stats.entries)
            << "every resident entry was inserted at some point";
        EXPECT_EQ(cache.lastDiskError(), "")
            << "concurrent persistence must not corrupt the writer";
    }

    // The surviving disk image must reload cleanly: unique temp names
    // + atomic rename mean a concurrent writer storm can never leave a
    // torn or quarantinable file.
    CompileCache reloaded(limits, nullptr, dir);
    reloaded.loadFromDir();
    const auto stats = reloaded.stats();
    EXPECT_EQ(stats.quarantined, 0u);
    EXPECT_EQ(stats.retired, 0u);
    EXPECT_LE(stats.entries, limits.max_entries);
    EXPECT_GE(puts.load(), 1u);
}

// ------------------------------------------------------------- queue --

TEST(QueueTest, ShedsWhenFullWithRetryAfter)
{
    AdmissionQueue<int> queue(2, /*workers=*/1, /*initial_ema_ms=*/10.0);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(queue.push(1, "t", inf).admitted);
    EXPECT_TRUE(queue.push(2, "t", inf).admitted);
    const Admission shed = queue.push(3, "t", inf);
    EXPECT_FALSE(shed.admitted);
    EXPECT_GT(shed.retry_after_ms, 0.0);
    EXPECT_EQ(queue.stats().shed, 1u);
}

TEST(QueueTest, TenantStormCannotStarveOthers)
{
    AdmissionQueue<std::string> queue(16);
    const double inf = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(
            queue.push("storm" + std::to_string(i), "storm", inf)
                .admitted);
    ASSERT_TRUE(queue.push("quiet0", "quiet", inf).admitted);

    // The quiet tenant's single request must pop within the first
    // rotation (second pop), not behind the whole storm.
    std::string first, second;
    ASSERT_TRUE(queue.pop(first));
    ASSERT_TRUE(queue.pop(second));
    EXPECT_TRUE(first == "quiet0" || second == "quiet0");
}

TEST(QueueTest, EarliestDeadlineFirstWithinTenant)
{
    AdmissionQueue<std::string> queue(8);
    ASSERT_TRUE(queue.push("patient", "t", 10'000.0).admitted);
    ASSERT_TRUE(queue.push("urgent", "t", 100.0).admitted);
    ASSERT_TRUE(
        queue.push("none", "t", std::numeric_limits<double>::infinity())
            .admitted);
    std::string out;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out, "urgent");
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out, "patient");
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out, "none") << "deadline-less requests order by FIFO seq";
}

TEST(QueueTest, CloseDrainsThenReleasesPoppers)
{
    AdmissionQueue<int> queue(4);
    const double inf = std::numeric_limits<double>::infinity();
    ASSERT_TRUE(queue.push(41, "t", inf).admitted);
    queue.close();
    EXPECT_FALSE(queue.push(42, "t", inf).admitted)
        << "a closed queue admits nothing";
    int out = 0;
    EXPECT_TRUE(queue.pop(out)) << "queued work still drains";
    EXPECT_EQ(out, 41);
    EXPECT_FALSE(queue.pop(out)) << "then pop() signals shutdown";
}

TEST(QueueTest, ConcurrentProducersAndConsumersLoseNothing)
{
    // 4 producers push 64 tagged items each through a small (depth-8)
    // queue while 3 consumers drain it; close() releases the
    // consumers once the producers finish.  Every admitted item must
    // be popped exactly once — tenant rotation and EDF selection under
    // contention may reorder, but never duplicate or drop.
    constexpr int kProducers = 4;
    constexpr int kConsumers = 3;
    constexpr int kPerProducer = 64;
    AdmissionQueue<int> queue(8, kConsumers);
    const double inf = std::numeric_limits<double>::infinity();

    std::atomic<std::uint64_t> admitted{0};
    std::vector<std::atomic<int>> popped_count(
        static_cast<std::size_t>(kProducers * kPerProducer));
    for (auto &c : popped_count)
        c.store(0);

    par::WorkerGroup consumers;
    consumers.start(kConsumers, [&](int) {
        int item = -1;
        while (queue.pop(item))
            popped_count[static_cast<std::size_t>(item)].fetch_add(1);
    });

    par::WorkerGroup producers;
    producers.start(kProducers, [&](int producer) {
        const std::string tenant = "t" + std::to_string(producer % 2);
        std::mt19937 rng(static_cast<unsigned>(99 + producer));
        for (int i = 0; i < kPerProducer; ++i) {
            const int tag = producer * kPerProducer + i;
            // Mixed deadlines exercise the EDF path under contention.
            const double deadline =
                (rng() % 3 == 0) ? inf : static_cast<double>(rng() % 1000);
            // A full queue sheds; retry until admitted so the
            // bookkeeping below is exact.
            while (!queue.push(tag, tenant, deadline).admitted)
                std::this_thread::yield();
            admitted.fetch_add(1, std::memory_order_relaxed);
        }
    });
    producers.join();
    queue.close();
    consumers.join();

    EXPECT_EQ(admitted.load(),
              static_cast<std::uint64_t>(kProducers * kPerProducer));
    for (std::size_t tag = 0; tag < popped_count.size(); ++tag)
        EXPECT_EQ(popped_count[tag].load(), 1)
            << "item " << tag << " popped wrong number of times";
    const auto stats = queue.stats();
    EXPECT_EQ(stats.admitted, admitted.load());
    EXPECT_EQ(stats.popped, admitted.load());
    EXPECT_EQ(stats.depth, 0u);
    EXPECT_EQ(stats.tenants, 0u);
}

// ------------------------------------------------------------ server --

/** Collects responses and lets tests await a given count. */
struct ResponseSink
{
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<ServeResponse> responses;

    CompileServer::ResponseFn
    fn()
    {
        return [this](const ServeResponse &r) {
            std::lock_guard<std::mutex> lock(mutex);
            responses.push_back(r);
            cv.notify_all();
        };
    }

    bool
    await(std::size_t count, int timeout_ms = 10'000)
    {
        std::unique_lock<std::mutex> lock(mutex);
        return cv.wait_for(lock,
                           std::chrono::milliseconds(timeout_ms),
                           [&] { return responses.size() >= count; });
    }
};

TEST(ServerTest, CompilesAndServesSecondRequestFromCache)
{
    ServerConfig config;
    config.workers = 1;
    // Sink outlives the server: an early ASSERT return still destroys
    // the server (draining callbacks) before the sink.
    ResponseSink sink;
    CompileServer server(config);
    server.start();

    server.submit(smallRequest("cold"), sink.fn());
    ASSERT_TRUE(sink.await(1));
    {
        std::lock_guard<std::mutex> lock(sink.mutex);
        const ServeResponse &r = sink.responses[0];
        ASSERT_EQ(r.type, "result") << r.error;
        EXPECT_EQ(r.status, "ok");
        EXPECT_FALSE(r.cache_hit);
        ASSERT_TRUE(r.hasCircuit());
        // The served artifact decodes back into a circuit.
        EXPECT_GT(r.decodedCircuit().gates().size(), 0u);
    }

    server.submit(smallRequest("warm"), sink.fn());
    ASSERT_TRUE(sink.await(2));
    std::lock_guard<std::mutex> lock(sink.mutex);
    const ServeResponse &warm = sink.responses[1];
    ASSERT_EQ(warm.type, "result");
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.qbin, sink.responses[0].qbin);
    EXPECT_EQ(server.stats().cache_hits, 1u);
    server.stop();
}

TEST(ServerTest, WarmHitIsBitIdenticalToAFreshCompile)
{
    // The acceptance bar for the binary artifact path: a cache hit's
    // circuit must equal an independent cold compile of the same
    // request gate for gate, with every angle compared as raw u64
    // bits — not "to N significant digits".
    ServerConfig config;
    config.workers = 1;
    ResponseSink sink;
    CompileServer server(config);
    server.start();

    server.submit(smallRequest("cold"), sink.fn());
    ASSERT_TRUE(sink.await(1));
    server.submit(smallRequest("warm"), sink.fn());
    ASSERT_TRUE(sink.await(2));
    server.stop();

    std::lock_guard<std::mutex> lock(sink.mutex);
    ASSERT_EQ(sink.responses.size(), 2u);
    const ServeResponse &warm = sink.responses[1];
    ASSERT_TRUE(warm.cache_hit) << warm.error;
    ASSERT_TRUE(warm.hasCircuit());

    // Recompile from scratch exactly as the server's default CompileFn
    // does, outside the server.
    const CompileRequest request = smallRequest("reference");
    const auto env = serve::makeEnvironment(request);
    const core::QaoaCompileOptions opts =
        serve::makeOptions(request, *env);
    const transpiler::CompileResult fresh =
        core::compileQaoaMaxcut(request.problem, env->map(), opts);
    ASSERT_TRUE(fresh.ok());

    const circuit::Circuit served = warm.decodedCircuit();
    EXPECT_TRUE(circuit::qbin::bitIdentical(served, fresh.compiled))
        << "warm hit and fresh compile diverge";
    // Belt and braces: the encoded documents are byte-identical too.
    EXPECT_EQ(warm.qbin, circuit::qbin::encodeCircuit(fresh.compiled));
}

TEST(ServerTest, FaultSpecRequestsDoNotShareCacheEntries)
{
    ServerConfig config;
    config.workers = 1;
    ResponseSink sink;
    CompileServer server(config);
    server.start();

    server.submit(smallRequest("healthy"), sink.fn());
    CompileRequest faulty = smallRequest("faulty");
    faulty.faults.dead_qubits = {5};
    server.submit(faulty, sink.fn());
    ASSERT_TRUE(sink.await(2));

    std::lock_guard<std::mutex> lock(sink.mutex);
    EXPECT_FALSE(sink.responses[1].cache_hit)
        << "a fault-spec'd request must not reuse the healthy artifact";
    EXPECT_EQ(server.stats().cache_hits, 0u);
    server.stop();
}

TEST(ServerTest, ShedsAtCapacityWithInjectedSlowCompile)
{
    ServerConfig config;
    config.workers = 1;
    config.queue_capacity = 2;
    ResponseSink sink;
    CompileServer server(
        config, [](const CompileRequest &request,
                   const serve::RequestEnvironment &env,
                   const core::QaoaCompileOptions &opts) {
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            return core::compileQaoaMaxcut(request.problem, env.map(),
                                           opts);
        });
    server.start();

    // Distinct problems (no cache hits), one worker, capacity 2: some
    // of a burst of 8 must shed, and every request gets an answer.
    for (int i = 0; i < 8; ++i) {
        CompileRequest request = smallRequest("burst" + std::to_string(i));
        request.seed = static_cast<std::uint64_t>(i);
        server.submit(request, sink.fn());
    }
    ASSERT_TRUE(sink.await(8, 30'000));

    std::lock_guard<std::mutex> lock(sink.mutex);
    int shed = 0, served = 0;
    for (const ServeResponse &r : sink.responses) {
        if (r.type == "shed") {
            ++shed;
            EXPECT_GT(r.retry_after_ms, 0.0);
        } else if (r.type == "result") {
            ++served;
        }
    }
    EXPECT_GT(shed, 0) << "burst beyond capacity must shed";
    EXPECT_GT(served, 0);
    EXPECT_EQ(shed + served, 8);
    EXPECT_EQ(server.stats().shed, static_cast<std::uint64_t>(shed));
    server.stop();
}

TEST(ServerTest, WorkerThrowBecomesStructuredErrorAndServingContinues)
{
    // The worker-loop firewall: a CompileFn that throws — a typed
    // qaoa::Error, a plain std::exception, even a non-standard object —
    // must come back as a structured error frame carrying the
    // classification, with the worker thread alive and the server
    // still answering the next request.
    ServerConfig config;
    config.workers = 1;
    ResponseSink sink;
    CompileServer server(
        config, [](const CompileRequest &request,
                   const serve::RequestEnvironment &env,
                   const core::QaoaCompileOptions &opts)
                    -> transpiler::CompileResult {
            if (request.id == "fault-typed")
                qaoa::raiseError(qaoa::ErrorCode::Malformed,
                                 "injected: torn artifact", 42);
            if (request.id == "fault-plain")
                throw std::runtime_error("injected: plain exception");
            if (request.id == "fault-alien")
                throw 42; // not derived from std::exception
            return core::compileQaoaMaxcut(request.problem, env.map(),
                                           opts);
        });
    server.start();

    const char *faults[] = {"fault-typed", "fault-plain", "fault-alien"};
    int seed = 0;
    for (const char *id : faults) {
        CompileRequest request = smallRequest(id);
        request.seed = static_cast<std::uint64_t>(100 + seed++);
        server.submit(request, sink.fn());
    }
    ASSERT_TRUE(sink.await(3));
    {
        std::lock_guard<std::mutex> lock(sink.mutex);
        ASSERT_EQ(sink.responses.size(), 3u);
        for (const ServeResponse &r : sink.responses) {
            EXPECT_EQ(r.type, "error") << r.id;
            EXPECT_FALSE(r.error.empty()) << r.id;
        }
        const auto by_id = [&](const std::string &id) -> const ServeResponse & {
            for (const ServeResponse &r : sink.responses)
                if (r.id == id)
                    return r;
            static const ServeResponse none;
            return none;
        };
        // A typed Error keeps its code AND its byte offset end to end.
        EXPECT_EQ(by_id("fault-typed").error_code, "malformed");
        EXPECT_EQ(by_id("fault-typed").error_offset, 42);
        EXPECT_NE(by_id("fault-typed").error.find("torn artifact"),
                  std::string::npos);
        // A std::exception classifies as invalid_argument (the
        // QAOA_CHECK class); an alien object as internal.
        EXPECT_EQ(by_id("fault-plain").error_code, "invalid_argument");
        EXPECT_EQ(by_id("fault-alien").error_code, "internal");
    }
    EXPECT_EQ(server.stats().errors, 3u);

    // The same worker must still serve a healthy compile.
    server.submit(smallRequest("healthy-after-faults"), sink.fn());
    ASSERT_TRUE(sink.await(4));
    {
        std::lock_guard<std::mutex> lock(sink.mutex);
        const ServeResponse &r = sink.responses[3];
        EXPECT_EQ(r.type, "result") << r.error;
        EXPECT_TRUE(r.hasCircuit());
    }
    server.stop();
}

TEST(ServerTest, PackingBelowOneIsAnErrorAndNothingIsCached)
{
    // A request that bypasses the decoder still hits the library's
    // contract check: an error frame, and no cache entry.
    ServerConfig config;
    config.workers = 1;
    ResponseSink sink;
    CompileServer server(config);
    server.start();
    CompileRequest request = smallRequest("packing-zero");
    request.packing_limit = 0;
    server.submit(request, sink.fn());
    ASSERT_TRUE(sink.await(1));
    {
        std::lock_guard<std::mutex> lock(sink.mutex);
        const ServeResponse &r = sink.responses[0];
        EXPECT_EQ(r.type, "error");
        EXPECT_EQ(r.error_code, "invalid_argument");
        EXPECT_FALSE(r.hasCircuit());
    }
    EXPECT_EQ(server.stats().cache.entries, 0u);
    server.stop();
}

TEST(ServerTest, ThrowingResponseSinkDoesNotKillTheWorker)
{
    // The respond() firewall: a sink (client callback) that throws is
    // the CLIENT's bug; it must be contained, counted, and must not
    // take the serving thread down or starve later requests.
    ServerConfig config;
    config.workers = 1;
    ResponseSink sink;
    CompileServer server(config);
    server.start();

    CompileRequest hostile = smallRequest("hostile-sink");
    hostile.seed = 17;
    server.submit(hostile, [](const ServeResponse &) {
        throw std::runtime_error("sink exploded");
    });

    server.submit(smallRequest("after-hostile"), sink.fn());
    ASSERT_TRUE(sink.await(1));
    {
        std::lock_guard<std::mutex> lock(sink.mutex);
        EXPECT_EQ(sink.responses[0].type, "result")
            << sink.responses[0].error;
    }
    EXPECT_GE(server.stats().errors, 1u)
        << "a swallowed sink exception must still be counted";
    server.stop();
}

TEST(ServerTest, CancelKillsQueuedRequest)
{
    ServerConfig config;
    config.workers = 1;
    std::mutex gate;
    gate.lock(); // Hold the worker inside the first compile.
    ResponseSink sink;
    CompileServer server(
        config, [&](const CompileRequest &request,
                    const serve::RequestEnvironment &env,
                    const core::QaoaCompileOptions &opts) {
            if (request.id == "blocker") {
                gate.lock(); // Released by the test below.
                gate.unlock();
            }
            return core::compileQaoaMaxcut(request.problem, env.map(),
                                           opts);
        });
    server.start();

    server.submit(smallRequest("blocker"), sink.fn());
    CompileRequest victim = smallRequest("victim");
    victim.seed = 99; // distinct content => no cache interaction
    server.submit(victim, sink.fn());
    EXPECT_TRUE(server.cancel("victim"));
    EXPECT_FALSE(server.cancel("nobody-home"));
    gate.unlock();

    ASSERT_TRUE(sink.await(2, 30'000));
    std::lock_guard<std::mutex> lock(sink.mutex);
    bool victim_cancelled = false;
    for (const ServeResponse &r : sink.responses)
        if (r.id == "victim") {
            EXPECT_EQ(r.type, "error");
            EXPECT_EQ(r.status, "cancelled");
            victim_cancelled = true;
        }
    EXPECT_TRUE(victim_cancelled);
    EXPECT_GE(server.stats().cancelled, 1u);
    server.stop();
}

TEST(ServerTest, PressureDegradesInsteadOfTimingOut)
{
    ServerConfig config;
    config.workers = 1;
    config.queue_capacity = 4;
    config.elevated_occupancy = 0.25; // One queued request => elevated.
    config.critical_occupancy = 0.75;

    std::mutex gate;
    gate.lock();
    ResponseSink sink;
    std::mutex seen_mutex;
    std::vector<std::pair<std::string, bool>> analyze_seen;
    CompileServer server(
        config, [&](const CompileRequest &request,
                    const serve::RequestEnvironment &env,
                    const core::QaoaCompileOptions &opts) {
            if (request.id == "blocker") {
                gate.lock();
                gate.unlock();
            }
            {
                std::lock_guard<std::mutex> lock(seen_mutex);
                analyze_seen.emplace_back(request.id,
                                          opts.analyze_quality);
            }
            return core::compileQaoaMaxcut(request.problem, env.map(),
                                           opts);
        });
    server.start();

    CompileRequest blocker = smallRequest("blocker");
    blocker.analyze_quality = true;
    server.submit(blocker, sink.fn());
    for (int i = 0; i < 3; ++i) {
        CompileRequest request =
            smallRequest("queued" + std::to_string(i));
        request.analyze_quality = true;
        request.seed = static_cast<std::uint64_t>(100 + i);
        server.submit(request, sink.fn());
    }
    gate.unlock();
    ASSERT_TRUE(sink.await(4, 30'000));

    std::lock_guard<std::mutex> lock(sink.mutex);
    int degraded = 0;
    for (const ServeResponse &r : sink.responses) {
        ASSERT_EQ(r.type, "result") << r.error;
        if (r.status == "degraded") {
            ++degraded;
            bool admission_note = false;
            for (const std::string &d : r.diagnostics)
                admission_note |= d.rfind("admission:", 0) == 0;
            EXPECT_TRUE(admission_note)
                << "degraded responses carry the admission diagnostic";
        }
    }
    EXPECT_GT(degraded, 0)
        << "requests served under pressure report degraded, not ok";
    EXPECT_GE(server.stats().pressure_downgrades,
              static_cast<std::uint64_t>(degraded));
    {
        // The degradation ladder actually shed the optional work: at
        // least one queued request compiled with analysis off.
        std::lock_guard<std::mutex> seen_lock(seen_mutex);
        bool analysis_shed = false;
        for (const auto &[id, analyzed] : analyze_seen)
            if (id != "blocker" && !analyzed)
                analysis_shed = true;
        EXPECT_TRUE(analysis_shed);
    }
    server.stop();
}

TEST(ServerTest, PressureDegradedResultsAreNotCached)
{
    ServerConfig config;
    config.workers = 1;
    config.queue_capacity = 4;
    config.elevated_occupancy = 0.25;

    std::mutex gate;
    gate.lock();
    ResponseSink sink;
    CompileServer server(
        config, [&](const CompileRequest &request,
                    const serve::RequestEnvironment &env,
                    const core::QaoaCompileOptions &opts) {
            if (request.id == "blocker") {
                gate.lock();
                gate.unlock();
            }
            return core::compileQaoaMaxcut(request.problem, env.map(),
                                           opts);
        });
    server.start();

    server.submit(smallRequest("blocker"), sink.fn());
    // "queued" is handled while "filler" still occupies the queue
    // (occupancy 1/4 >= 0.25), so it is served under elevated pressure.
    // It requests quality analysis, giving the ladder work to shed.
    CompileRequest queued = smallRequest("queued");
    queued.seed = 123;
    queued.analyze_quality = true;
    server.submit(queued, sink.fn());
    CompileRequest filler = smallRequest("filler");
    filler.seed = 124;
    server.submit(filler, sink.fn());
    gate.unlock();
    ASSERT_TRUE(sink.await(3, 30'000));
    {
        std::lock_guard<std::mutex> lock(sink.mutex);
        bool queued_degraded = false;
        for (const ServeResponse &r : sink.responses)
            if (r.id == "queued")
                queued_degraded = r.status == "degraded";
        ASSERT_TRUE(queued_degraded)
            << "test setup: \"queued\" should have served under pressure";
    }

    // Re-submitting the degraded request's content must recompile.
    CompileRequest again = smallRequest("again");
    again.seed = 123;
    again.analyze_quality = true;
    server.submit(again, sink.fn());
    ASSERT_TRUE(sink.await(4, 30'000));
    std::lock_guard<std::mutex> lock(sink.mutex);
    for (const ServeResponse &r : sink.responses)
        if (r.id == "again") {
            EXPECT_FALSE(r.cache_hit)
                << "degraded artifacts must not be cached";
        }
    server.stop();
}

TEST(ServerTest, StopAnswersEveryAdmittedRequest)
{
    ServerConfig config;
    config.workers = 2;
    ResponseSink sink;
    CompileServer server(
        config, [](const CompileRequest &request,
                   const serve::RequestEnvironment &env,
                   const core::QaoaCompileOptions &opts) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            return core::compileQaoaMaxcut(request.problem, env.map(),
                                           opts);
        });
    server.start();
    for (int i = 0; i < 6; ++i) {
        // Two-step concat dodges a GCC 12 -Wrestrict false positive on
        // operator+(const char*, string&&).
        std::string id = "s";
        id += std::to_string(i);
        CompileRequest request = smallRequest(id);
        request.seed = static_cast<std::uint64_t>(i);
        server.submit(request, sink.fn());
    }
    server.stop();
    // stop() drains: every admitted request got some response.
    std::lock_guard<std::mutex> lock(sink.mutex);
    EXPECT_EQ(sink.responses.size(), 6u);
}

TEST(ServerTest, WarmCacheSurvivesRestartViaDisk)
{
    const std::string dir = tempDir("qaoa_server_restart");
    ServerConfig config;
    config.workers = 1;
    config.cache_dir = dir;

    std::string first_qbin;
    {
        ResponseSink sink;
        CompileServer server(config);
        server.start();
        server.submit(smallRequest("persist"), sink.fn());
        ASSERT_TRUE(sink.await(1));
        std::lock_guard<std::mutex> lock(sink.mutex);
        ASSERT_EQ(sink.responses[0].type, "result");
        first_qbin = sink.responses[0].qbin;
        server.stop();
    }
    {
        ResponseSink sink;
        CompileServer server(config);
        server.start();
        EXPECT_EQ(server.stats().cache.loaded, 1u);
        server.submit(smallRequest("reheat"), sink.fn());
        ASSERT_TRUE(sink.await(1));
        std::lock_guard<std::mutex> lock(sink.mutex);
        EXPECT_TRUE(sink.responses[0].cache_hit)
            << "restart must reload the persisted cache";
        EXPECT_EQ(sink.responses[0].qbin, first_qbin)
            << "the artifact must survive the disk round trip "
               "byte-for-byte";
        server.stop();
    }
}

} // namespace
} // namespace qaoa

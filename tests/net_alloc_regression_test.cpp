// Zero-allocation regression tests — the enforcement teeth of DESIGN.md §11.
//
// Strategy: run a full warmup session to grow every pool, ring and scratch
// buffer to its steady-state capacity, then reset() the transport (which
// reseeds the RNG streams, so the second session replays the exact same
// trajectory) and replay with the operator-new counter armed around the
// tick loop. Because the replay is bit-identical, the warmed capacities are
// exactly sufficient — a single allocation is a regression, not noise.
//
// The armed window covers the 90 Hz steady state only: on_frame(), the
// event cascade run_until() drives (air, acks, deadlines, FEC recovery,
// retransmissions), and the batched oracle query path. finalize()/reset()
// are deliberately outside the window — building a metrics histogram
// between sessions may allocate; the per-tick path may not.
#include "net_alloc_hook.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <vector>

#include <arena/interference.hpp>
#include <channel/obstacle.hpp>
#include <channel/path_batch.hpp>
#include <channel/path_solver.hpp>
#include <core/channel_oracle.hpp>
#include <core/gain_control.hpp>
#include <core/occlusion_forecaster.hpp>
#include <core/scene.hpp>
#include <geom/angle.hpp>
#include <net/transport.hpp>
#include <phy/mcs.hpp>
#include <sim/simulator.hpp>

namespace movr::net {
namespace {

using namespace std::chrono_literals;

constexpr int kTicks = 200;

TEST(NetAllocRegression, HookCountsAllocations) {
  // Self-test: the interposer must actually be the binary's operator new
  // (also under ASan, whose malloc sits underneath it) — otherwise every
  // zero-allocation assertion below would pass vacuously.
  // (A paired new/delete in one function may legally be elided by the
  // optimizer; the vector's heap buffer cannot be.)
  testing::alloc_counter_start();
  std::vector<int>* v = new std::vector<int>(64);
  const std::uint64_t allocs = testing::alloc_counter_stop();
  delete v;
  EXPECT_GE(allocs, 1u) << "operator-new hook is not interposing";
}

TransportConfig steady_config() {
  TransportConfig config;
  config.source.fps = 90.0;
  config.source.target_mbps = 2000.0;
  config.source.latency_budget = 10ms;
  config.source.seed = 12;
  config.seed = 34;
  // Static FEC so the parity, recovery and retransmission machinery all run
  // inside the measured window.
  config.fec.k = 4;
  config.fec.depth = 2;
  return config;
}

/// Drives one session of `kTicks` frames under a fixed lossy channel.
/// Deterministic by construction: the channel schedule is constant and the
/// transport's RNG streams are reseeded by reset(), so every session is an
/// exact replay of the first.
void run_session(sim::Simulator& simulator, Transport& transport,
                 sim::TimePoint base) {
  const sim::Duration interval = sim::from_seconds(1.0 / 90.0);
  ChannelState channel;
  channel.mcs = &phy::mcs_table()[phy::mcs_table().size() / 2];
  channel.packet_loss = 0.12;
  for (int t = 0; t < kTicks; ++t) {
    simulator.run_until(base + interval * t);
    transport.on_frame(channel);
  }
}

TEST(NetAllocRegression, SteadyStateTransportTickIsHeapFree) {
  sim::Simulator simulator;
  Transport transport{simulator, steady_config()};

  // Session 1: warm every pool to steady-state capacity, then drain the
  // event queue (reset() requires it) and rewind to a fresh session.
  run_session(simulator, transport, sim::TimePoint{});
  simulator.run();
  ASSERT_EQ(simulator.pending_events(), 0u);
  transport.finalize(simulator.now());
  ASSERT_TRUE(transport.metrics().conserved());
  const std::size_t warmed_arena = transport.arena_bytes();
  transport.reset();

  // Session 2: exact replay with the allocation counter armed. No EXPECTs
  // inside the window — gtest assertions allocate.
  const sim::TimePoint base = simulator.now();
  testing::alloc_counter_start();
  run_session(simulator, transport, base);
  const std::uint64_t allocs = testing::alloc_counter_stop();
  EXPECT_EQ(allocs, 0u)
      << "steady-state transport ticks touched the heap " << allocs
      << " time(s); some pool or scratch buffer lost its capacity";

  // The replay fits the warmed arena exactly — no pool grew.
  simulator.run();
  transport.finalize(simulator.now());
  EXPECT_TRUE(transport.metrics().conserved());
  EXPECT_EQ(transport.arena_bytes(), warmed_arena)
      << "replayed session grew a pool that session 1 should have warmed";
  EXPECT_EQ(transport.metrics().arena_high_water_bytes, warmed_arena);
}

TEST(NetAllocRegression, WarmedOracleQueryBatchIsHeapFree) {
  const channel::Room room = channel::Room::paper_office();
  const core::ChannelOracle oracle{room};

  channel::EndpointBatch batch;
  const geom::Vec2 ap{0.5, 0.5};
  for (double y = 0.4; y < room.depth() - 0.4; y += 0.5) {
    for (double x = 0.4; x < room.width() - 0.4; x += 0.5) {
      batch.push(ap, {x, y});
    }
  }
  ASSERT_GT(batch.size(), 50u);

  // Cold call: fills the cache and sizes every scratch vector.
  std::vector<core::ChannelOracle::PathsView> views;
  oracle.query_batch(batch, views);
  const auto cold = oracle.stats();
  ASSERT_EQ(cold.misses, batch.size());

  // Warm call over the same endpoints: pure cache hits through borrowed
  // views — must not allocate.
  testing::alloc_counter_start();
  oracle.query_batch(batch, views);
  const std::uint64_t allocs = testing::alloc_counter_stop();
  EXPECT_EQ(allocs, 0u) << "warmed query_batch touched the heap " << allocs
                        << " time(s)";
  const auto warm = oracle.stats();
  EXPECT_EQ(warm.hits, cold.hits + batch.size());
  EXPECT_EQ(warm.misses, cold.misses);
}

TEST(NetAllocRegression, WarmedSolveBatchIsHeapFree) {
  // The batch solver itself (no cache in front): once the output batch and
  // workspace are warmed, re-solving the same endpoints is allocation-free.
  const channel::Room room = channel::Room::paper_office();
  const channel::PathSolver solver{room};

  channel::EndpointBatch endpoints;
  for (int i = 0; i < 64; ++i) {
    endpoints.push({0.3 + 0.09 * i, 0.6}, {6.5, 4.2});
  }
  channel::PathBatch batch;
  channel::PathSolver::BatchWorkspace ws;
  solver.solve_batch(endpoints, batch, ws);

  testing::alloc_counter_start();
  solver.solve_batch(endpoints, batch, ws);
  const std::uint64_t allocs = testing::alloc_counter_stop();
  EXPECT_EQ(allocs, 0u) << "warmed solve_batch touched the heap " << allocs
                        << " time(s)";
  EXPECT_EQ(batch.queries(), endpoints.size());
}

TEST(NetAllocRegression, WarmedInterferencePenaltyIsHeapFree) {
  // The arena's per-frame interference evaluation: 16 users on four corner
  // APs, every third one riding a reflector, each victim against the other
  // 15. Once the oracles hold every path set and the caller-owned scratch
  // has grown, a pass over all victims must not touch the heap.
  constexpr std::size_t kUsers = 16;
  const geom::Vec2 corners[4] = {{0.4, 0.4}, {7.6, 0.4}, {7.6, 7.6}, {0.4, 7.6}};
  core::Scene prototype{channel::Room{8.0, 8.0},
                        core::ApRadio{corners[0], geom::deg_to_rad(45.0)},
                        core::HeadsetRadio{{4.0, 4.0}, 0.0}};
  prototype.add_reflector({4.0, 7.7}, geom::deg_to_rad(265.0));
  prototype.add_reflector({7.7, 4.0}, geom::deg_to_rad(175.0));
  prototype.add_reflector({0.3, 4.0}, geom::deg_to_rad(355.0));
  prototype.add_reflector({4.0, 0.3}, geom::deg_to_rad(85.0));
  std::mt19937_64 cal{3};
  for (std::size_t r = 0; r < prototype.reflector_count(); ++r) {
    core::MovrReflector& reflector = prototype.reflector(r);
    reflector.front_end().steer_rx(
        prototype.true_reflector_angle_to_ap(reflector));
    reflector.front_end().steer_tx(
        prototype.true_reflector_angle_to_headset(reflector));
    prototype.ap().node().steer_toward(reflector.position());
    core::GainController::run(reflector.front_end(),
                              prototype.reflector_input(reflector), cal);
  }

  std::vector<core::Scene> scenes;
  scenes.reserve(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    core::Scene scene = prototype.clone();
    scene.ap().node().set_position(corners[u % 4]);
    scene.ap().node().set_orientation(
        geom::deg_to_rad(45.0 + 90.0 * static_cast<double>(u % 4)));
    const double t = static_cast<double>(u);
    scene.headset().node().set_position(
        {1.0 + std::fmod(1.7 * t, 6.0), 1.0 + std::fmod(2.9 * t, 6.0)});
    scene.headset().node().face_toward(scene.ap().node().position());
    scene.ap().node().steer_toward(scene.headset().node().position());
    scenes.push_back(std::move(scene));
  }
  std::vector<std::vector<arena::Interferer>> aggressors(kUsers);
  std::size_t via_reflector = 0;
  for (std::size_t u = 0; u < kUsers; ++u) {
    for (std::size_t v = 0; v < kUsers; ++v) {
      if (v == u) {
        continue;
      }
      arena::Interferer aggressor;
      aggressor.scene = &scenes[v];
      aggressor.via_reflector = v % 3 == 0;
      aggressor.reflector = v % 4;
      via_reflector += aggressor.via_reflector ? 1 : 0;
      aggressors[u].push_back(aggressor);
    }
  }
  ASSERT_GT(via_reflector, 0u);

  const arena::InterferenceConfig config;
  arena::InterferenceScratch scratch;
  std::vector<double> warm(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    warm[u] = arena::sinr_penalty_db(scenes[u], aggressors[u], config, scratch);
  }

  std::vector<double> armed(kUsers);
  testing::alloc_counter_start();
  for (std::size_t u = 0; u < kUsers; ++u) {
    armed[u] =
        arena::sinr_penalty_db(scenes[u], aggressors[u], config, scratch);
  }
  const std::uint64_t allocs = testing::alloc_counter_stop();
  EXPECT_EQ(allocs, 0u) << "warmed sinr_penalty_db touched the heap "
                        << allocs << " time(s)";
  EXPECT_EQ(armed, warm);
  EXPECT_GT(*std::max_element(armed.begin(), armed.end()), 0.0);
}

TEST(NetAllocRegression, WarmedGainControlRampIsHeapFree) {
  // Calibration: read the reflector's input off the AP's beam, then ramp
  // the gain code against it. The first pass allocates the arrays' response
  // memos and the ramp's trace; the same pass again must not touch the heap.
  core::Scene scene{channel::Room::paper_office(),
                    core::ApRadio{{0.4, 0.4}, geom::deg_to_rad(45.0)},
                    core::HeadsetRadio{{3.0, 2.0}, 0.0}};
  core::MovrReflector& reflector =
      scene.add_reflector({4.6, 4.6}, geom::deg_to_rad(225.0));
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(
      scene.true_reflector_angle_to_headset(reflector));
  scene.ap().node().steer_toward(reflector.position());

  const core::GainController::Config config;
  core::GainController::Result result;
  std::mt19937_64 rng{5};
  testing::alloc_counter_start();
  core::GainController::run(reflector.front_end(),
                            scene.reflector_input(reflector), rng, config,
                            result);
  const std::uint64_t cold_allocs = testing::alloc_counter_stop();
  const core::GainController::Result cold = result;
  ASSERT_GT(cold.trace.size(), 1u);

  rng.seed(5);
  testing::alloc_counter_start();
  const rf::DbmPower input = scene.reflector_input(reflector);
  core::GainController::run(reflector.front_end(), input, rng, config, result);
  const std::uint64_t allocs = testing::alloc_counter_stop();
  EXPECT_GT(cold_allocs, 0u) << "the cold pass should have allocated";
  EXPECT_EQ(allocs, 0u) << "warmed reflector_input + GainController::run "
                        << "touched the heap " << allocs << " time(s)";
  EXPECT_EQ(result.final_code, cold.final_code);
  EXPECT_EQ(result.knee_found, cold.knee_found);
  EXPECT_EQ(result.trace.size(), cold.trace.size());
}

TEST(NetAllocRegression, WarmedForecastIsHeapFree) {
  // The predictive tier's per-frame check: a player walks toward a standing
  // person's shadow and the forecaster probes the LOS at the predicted
  // positions. Only forecast() is armed: the tracker's pose history is a
  // deque, and on_pose() may grow it now and then.
  channel::Room room{5.0, 5.0};
  room.add_obstacle(channel::make_person({1.7, 1.3}));
  core::Scene scene{std::move(room),
                    core::ApRadio{{0.4, 0.4}, geom::deg_to_rad(45.0)},
                    core::HeadsetRadio{{3.6, 1.4}, 0.0}};
  core::OcclusionForecaster::Config config;
  config.tracker.tracking_noise_m = 0.0;
  core::OcclusionForecaster forecaster{config};

  const geom::Vec2 from{3.6, 1.4};
  const geom::Vec2 velocity{-1.0, 1.3};
  std::uint64_t allocs = 0;
  int windows = 0;
  for (int i = 0; i < 90; ++i) {
    const auto t = sim::from_seconds(i * 0.0111);
    const geom::Vec2 pos = from + velocity * sim::to_seconds(t);
    scene.headset().node().set_position(pos);
    forecaster.on_pose(sim::TimePoint{t}, pos);
    testing::alloc_counter_start();
    const auto window = forecaster.forecast(scene, sim::TimePoint{t});
    allocs += testing::alloc_counter_stop();
    windows += window.has_value() ? 1 : 0;
  }
  EXPECT_EQ(allocs, 0u) << "forecast() touched the heap " << allocs
                        << " time(s)";
  EXPECT_GT(windows, 0) << "no window: the blocked-probe path never ran";
  EXPECT_GT(forecaster.counters().forecasts,
            forecaster.counters().no_fit_skips);
}

/// One cycle of simulator churn shaped like the transport's: 256 pending
/// events whose captures are transport-sized (a 128-byte payload plus a
/// pointer); every fourth handler schedules a follow-up (an ack), and every
/// sixteenth event is cancelled before it fires (a recovered timeout).
void churn_cycle(sim::Simulator& simulator, std::uint64_t& sink) {
  struct Payload {
    std::array<std::uint8_t, 128> bytes;
  };
  Payload payload{};
  std::array<sim::EventQueue::EventId, 256> ids{};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    payload.bytes[i % 128] = static_cast<std::uint8_t>(i);
    const sim::Duration delay{static_cast<std::int64_t>(i * 37 % 64 + 1)};
    ids[i] = simulator.after(delay, [&simulator, &sink, payload, i] {
      sink += payload.bytes[i % 128];
      if (i % 4 == 0) {
        simulator.after(sim::Duration{5},
                        [&sink, payload] { sink += payload.bytes[0]; });
      }
    });
  }
  for (std::size_t i = 0; i < ids.size(); i += 16) {
    simulator.cancel(ids[i]);
  }
  simulator.run();
}

TEST(NetAllocRegression, WarmedSimulatorScheduleCancelRunIsHeapFree) {
  // The event core's pools (the slot pool and the key heap) keep their
  // capacity, so once one cycle has grown them an identical cycle must not
  // touch the heap: no per-event allocation, none for cancels.
  sim::Simulator simulator;
  std::uint64_t warm_sink = 0;
  churn_cycle(simulator, warm_sink);
  ASSERT_EQ(simulator.pending_events(), 0u);

  std::uint64_t sink = 0;
  testing::alloc_counter_start();
  churn_cycle(simulator, sink);
  const std::uint64_t allocs = testing::alloc_counter_stop();
  EXPECT_EQ(allocs, 0u) << "warmed schedule/cancel/run touched the heap "
                        << allocs << " time(s)";
  EXPECT_EQ(sink, warm_sink);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

}  // namespace
}  // namespace movr::net

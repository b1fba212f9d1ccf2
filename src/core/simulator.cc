#include "core/simulator.hh"

#include "core/fetch_engine.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"

namespace specfetch {

namespace {

/**
 * Every overload lands here: replay @p snapshot when given, else
 * record the (workload, config.runSeed) stream through a streaming
 * cursor as the run consumes it.
 */
SimResults
simulate(const Workload &workload, const SimConfig &config,
         const TraceSnapshot *snapshot, RunObservations *observations,
         bool classify = false)
{
    FetchEngine engine(config, workload.image);
    if (classify)
        engine.armClassifier();
    SimResults results;
    if (snapshot) {
        SnapshotReplaySource source(*snapshot);
        results = engine.run(source);
    } else {
        Executor executor(workload.cfg, config.runSeed);
        SnapshotReplaySource source(executor, config.streamInstructions());
        results = engine.run(source);
    }
    results.workload = workload.profile.name;
    if (observations)
        engine.takeObservations(*observations, results);
    return results;
}

} // namespace

SimResults
runSimulation(const Workload &workload, const SimConfig &config)
{
    return simulate(workload, config, nullptr, nullptr);
}

SimResults
runSimulation(const Workload &workload, const SimConfig &config,
              const TraceSnapshot &snapshot)
{
    return simulate(workload, config, &snapshot, nullptr);
}

SimResults
runSimulation(const Workload &workload, const SimConfig &config,
              RunObservations &observations, bool classify)
{
    return simulate(workload, config, nullptr, &observations, classify);
}

SimResults
runSimulation(const Workload &workload, const SimConfig &config,
              const TraceSnapshot &snapshot, RunObservations &observations,
              bool classify)
{
    return simulate(workload, config, &snapshot, &observations, classify);
}

SimResults
runBenchmark(const std::string &benchmark, const SimConfig &config)
{
    return runSimulation(*sharedWorkload(benchmark), config);
}

} // namespace specfetch

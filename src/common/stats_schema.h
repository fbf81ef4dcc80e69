/**
 * @file
 * The registered stats surface: every counter the simulator exposes,
 * in one place (DESIGN.md §9, rule D11).
 *
 * Each DS_STAT entry is (identifier, dump name, description). The
 * identifier becomes a StatId enumerator and the name its dump row,
 * so this list is the only place a counter name is spelt: code bumps
 * `stats.get(StatId::FlashPageReads)`, and a misspelt or unregistered
 * counter fails to compile. The DS_STAT entries must stay in
 * byte-wise name order (a static_assert below checks it): that order
 * is the dump order.
 *
 * DS_STAT_ROW entries document rows printed by hand (`os << "name =
 * ..."`) instead of through a StatGroup — the first-class form of the
 * guarded-row idiom. The description records *when* the row appears:
 * guarded rows keep default-config dumps byte-identical to older pins
 * (the determinism sweeps compare dump strings). D11 checks that
 * every manual row is registered here and that no entry is stale.
 *
 * The descriptions are documentation only; nothing at runtime parses
 * them.
 */

#ifndef DEEPSTORE_COMMON_STATS_SCHEMA_H
#define DEEPSTORE_COMMON_STATS_SCHEMA_H

#include <cstddef>
#include <cstdint>
#include <string_view>

// clang-format off
#define DEEPSTORE_STATS_SCHEMA(DS_STAT, DS_STAT_ROW)                        \
    /* ---- array coordinator (StatGroup) --------------------------- */    \
    DS_STAT(ArrayFabricBusyTicks, "array.fabric.busyTicks",                 \
            "ticks the inter-node fabric spent carrying repair/query data") \
    DS_STAT(ArrayFabricBytes, "array.fabric.bytes",                         \
            "bytes carried over the inter-node fabric")                     \
    DS_STAT(ArrayFabricGrants, "array.fabric.grants",                       \
            "arbitration grants on the inter-node fabric")                  \
    DS_STAT(ArrayFabricWaitTicks, "array.fabric.waitTicks",                 \
            "ticks requesters waited for the inter-node fabric")            \
    DS_STAT(ArrayNodeDeaths, "array.nodeDeaths",                            \
            "whole-node death events injected")                             \
    DS_STAT(ArrayPowerLosses, "array.powerLosses",                          \
            "array-wide power-loss events injected")                        \
    DS_STAT(ArrayQueriesScattered, "array.queriesScattered",                \
            "queries fanned out across shard-holding nodes")                \
    DS_STAT(ArrayRedispatches, "array.redispatches",                        \
            "sub-queries re-dispatched after a node death")                 \
    DS_STAT(ArrayShardsLostNoReplica, "array.shardsLostNoReplica",          \
            "shards lost with no surviving replica to re-stripe from")      \
    DS_STAT(ArraySubQueriesLost, "array.subQueriesLost",                    \
            "sub-queries dropped with their node (before redispatch)")      \
    DS_STAT(ArraySubQueriesRemote, "array.subQueriesRemote",                \
            "sub-queries served by a non-home node")                        \
    /* ---- DFV weight stream ---------------------------------------- */   \
    DS_STAT(DfvBackpressureTicks, "dfv.backpressureTicks",                  \
            "ticks the DFV stream stalled waiting on the compute sink")     \
    DS_STAT(DfvBursts, "dfv.bursts",                                        \
            "DMA bursts issued by the DFV streamer")                        \
    DS_STAT(DfvBytesStreamed, "dfv.bytesStreamed",                          \
            "payload bytes streamed to the DFV")                            \
    DS_STAT(DfvPageRetries, "dfv.pageRetries",                              \
            "pages re-read after a correctable stream error")               \
    DS_STAT(DfvPagesFailed, "dfv.pagesFailed",                              \
            "pages abandoned as uncorrectable")                             \
    DS_STAT(DfvPagesStreamed, "dfv.pagesStreamed",                          \
            "pages streamed into the DFV")                                  \
    DS_STAT(DfvStreamsOpened, "dfv.streamsOpened",                          \
            "weight/probe streams opened")                                  \
    /* ---- shared DRAM ---------------------------------------------- */   \
    DS_STAT(DramBusyTicks, "dram.busyTicks",                                \
            "ticks the shared DRAM link was busy")                          \
    DS_STAT(DramWaitTicks, "dram.waitTicks",                                \
            "ticks requesters waited on the DRAM link")                     \
    /* ---- flash controller ----------------------------------------- */   \
    DS_STAT(FlashBlockErases, "flash.blockErases", "physical block erases") \
    DS_STAT(FlashChannelStalls, "flash.channelStalls",                      \
            "requests that waited for a busy flash channel")                \
    DS_STAT(FlashPagePrograms, "flash.pagePrograms",                        \
            "physical page programs")                                       \
    DS_STAT(FlashPageReads, "flash.pageReads", "physical page reads")       \
    DS_STAT(FlashReadBytes, "flash.readBytes", "bytes read from flash")     \
    DS_STAT(FlashReadRetries, "flash.readRetries",                          \
            "page reads retried after ECC failure")                         \
    DS_STAT(FlashUncorrectableReads, "flash.uncorrectableReads",            \
            "page reads that exhausted retries (uncorrectable)")            \
    DS_STAT(FlashWriteBytes, "flash.writeBytes",                            \
            "bytes programmed to flash")                                    \
    /* ---- FTL ------------------------------------------------------ */   \
    DS_STAT(FtlMigratedPages, "ftl.migratedPages",                          \
            "valid pages migrated during garbage collection")               \
    DS_STAT(FtlPageWrites, "ftl.pageWrites",                                \
            "logical page writes mapped by the FTL")                        \
    DS_STAT(FtlRelocatedPages, "ftl.relocatedPages",                        \
            "pages moved by wear-driven background relocation")             \
    DS_STAT(FtlRelocations, "ftl.relocations",                              \
            "background relocation passes run")                             \
    DS_STAT(FtlRetiredSuperblocks, "ftl.retiredSuperblocks",                \
            "superblocks retired at the endurance cap")                     \
    DS_STAT(FtlSuperblockErases, "ftl.superblockErases",                    \
            "superblock erase cycles")                                      \
    /* ---- host interface / device-internal traffic ---------------- */    \
    DS_STAT(HostReadBytes, "host.readBytes",                                \
            "bytes returned to host reads")                                 \
    DS_STAT(HostReadCommands, "host.readCommands",                          \
            "host read commands accepted")                                  \
    DS_STAT(HostTrimCommands, "host.trimCommands",                          \
            "host trim commands accepted")                                  \
    DS_STAT(HostWriteCommands, "host.writeCommands",                        \
            "host write commands accepted")                                 \
    DS_STAT(InternalReads, "internal.reads",                                \
            "device-internal page reads (scan datapath, not host I/O)")     \
    DS_STAT(NocWaitTicks, "noc.waitTicks",                                  \
            "ticks requesters waited on the on-chip NoC")                   \
    DS_STAT(PowerLosses, "powerLosses",                                     \
            "device power-loss events injected")                            \
    /* ---- query scheduler ------------------------------------------ */   \
    DS_STAT(SchedDeadlineExceeded, "sched.deadlineExceeded",                \
            "queries that blew their latency deadline")                     \
    DS_STAT(SchedNodeDeathKills, "sched.nodeDeathKills",                    \
            "in-flight queries killed by a node death")                     \
    DS_STAT(SchedPowerLossKills, "sched.powerLossKills",                    \
            "in-flight queries killed by a power loss")                     \
    DS_STAT(SchedQueriesCancelled, "sched.queriesCancelled",                \
            "queries cancelled by the host")                                \
    DS_STAT(SchedQueriesDegraded, "sched.queriesDegraded",                  \
            "queries completed with partial shard coverage")                \
    DS_STAT(SchedShardFailures, "sched.shardFailures",                      \
            "shard-level scan failures")                                    \
    DS_STAT(SchedShardReassignments, "sched.shardReassignments",            \
            "shards reassigned to a surviving replica holder")              \
    DS_STAT(SchedShardsLost, "sched.shardsLost",                            \
            "shards abandoned after failure")                               \
    DS_STAT(SchedUnitFailures, "sched.unitFailures",                        \
            "compute-unit failures injected")                               \
    DS_STAT(SchedWatchdogFires, "sched.watchdogFires",                      \
            "scheduler watchdog expirations")                               \
    /* ---- background scrubber ------------------------------------- */    \
    DS_STAT(ScrubReads, "scrub.reads",                                      \
            "pages read by the background scrubber")                        \
    /* ---- engine rows (deepstore.cc dumpStats; always printed) ----- */   \
    DS_STAT_ROW("engine.completed", "always printed: queries completed")    \
    DS_STAT_ROW("engine.databases", "always printed: databases loaded")     \
    DS_STAT_ROW("engine.inFlight", "always printed: queries in flight")     \
    DS_STAT_ROW("engine.models", "always printed: models registered")       \
    DS_STAT_ROW("engine.qc.entries",                                        \
                "always printed: query-cache resident entries")             \
    DS_STAT_ROW("engine.qc.hits", "always printed: query-cache hits")       \
    DS_STAT_ROW("engine.qc.misses", "always printed: query-cache misses")   \
    DS_STAT_ROW("engine.queries", "always printed: queries submitted")      \
    DS_STAT_ROW("engine.simulatedSeconds",                                  \
                "always printed: simulated seconds elapsed")                \
    /* ---- array rows (array_coordinator.cc dumpStats) -------------- */   \
    DS_STAT_ROW("array.aliveNodes", "always printed: nodes still alive")    \
    DS_STAT_ROW("array.nodes", "always printed: nodes configured")          \
    DS_STAT_ROW("array.replication",                                        \
                "always printed: configured replication factor")            \
    DS_STAT_ROW("array.repair.bytesOverFabric",                             \
                "printed when repair is enabled or has copied pages")       \
    DS_STAT_ROW("array.repair.lastCompleteTick",                            \
                "printed when repair is enabled or has copied pages")       \
    DS_STAT_ROW("array.repair.pagesCopied",                                 \
                "printed when repair is enabled or has copied pages")       \
    DS_STAT_ROW("array.repair.shardsRepaired",                              \
                "printed when repair is enabled or has copied pages")       \
    DS_STAT_ROW("array.scrub.latentRepaired",                               \
                "printed when scrub is enabled or has scanned pages")       \
    DS_STAT_ROW("array.scrub.pagesScanned",                                 \
                "printed when scrub is enabled or has scanned pages")       \
    DS_STAT_ROW("array.scrub.passes",                                       \
                "printed when scrub is enabled or has scanned pages")       \
    DS_STAT_ROW("array.scrub.uncorrectableFound",                           \
                "printed when scrub is enabled or has scanned pages")       \
    DS_STAT_ROW("array.superblock.tornReplicas",                            \
                "printed only when torn superblock replicas were seen")
// clang-format on

namespace deepstore {

/** One enumerator per DS_STAT entry, in schema (= dump) order. */
enum class StatId : std::uint8_t
{
#define DEEPSTORE_STAT_ID(id, name, desc) id,
#define DEEPSTORE_STAT_ROW_NONE(name, desc)
    DEEPSTORE_STATS_SCHEMA(DEEPSTORE_STAT_ID, DEEPSTORE_STAT_ROW_NONE)
#undef DEEPSTORE_STAT_ID
};

/** Dump name of every StatId, indexed by the enumerator. */
inline constexpr std::string_view kStatNames[] = {
#define DEEPSTORE_STAT_NAME(id, name, desc) name,
    DEEPSTORE_STATS_SCHEMA(DEEPSTORE_STAT_NAME, DEEPSTORE_STAT_ROW_NONE)
#undef DEEPSTORE_STAT_NAME
};
#undef DEEPSTORE_STAT_ROW_NONE

inline constexpr std::size_t kStatCount = std::size(kStatNames);

static_assert(
    [] {
        for (std::size_t i = 1; i < kStatCount; ++i)
            if (!(kStatNames[i - 1] < kStatNames[i]))
                return false;
        return true;
    }(),
    "keep DS_STAT entries in byte-wise name order: StatGroup dumps "
    "them in enumerator order");

} // namespace deepstore

#endif // DEEPSTORE_COMMON_STATS_SCHEMA_H

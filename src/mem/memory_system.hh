/**
 * @file
 * Assembly of the full coherent memory hierarchy: one cache
 * controller, directory slice and DRAM per node, wired through the
 * fabric over the interconnect, sharing one address map and one value
 * backend.
 */

#ifndef TB_MEM_MEMORY_SYSTEM_HH_
#define TB_MEM_MEMORY_SYSTEM_HH_

#include <memory>
#include <vector>

#include "mem/address_map.hh"
#include "mem/backend.hh"
#include "mem/cache_controller.hh"
#include "mem/directory.hh"
#include "mem/dram.hh"
#include "mem/fabric.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"
#include "sim/hooks.hh"

namespace tb {
namespace mem {

/** Timing/geometry configuration shared by all nodes. */
struct MemoryConfig
{
    ControllerConfig controller;
    DramConfig dram;
    /**
     * DASH-style three-hop forwarding: owners reply with data
     * directly to requesters (saves one traversal per intervention).
     * Default is the simpler hub-and-spoke protocol (DESIGN.md §6).
     */
    bool threeHopForwarding = false;
};

/** The machine's complete memory system. */
class MemorySystem
{
  public:
    /** Maps a node to the event queue owning its components. */
    using QueueFor =
        InlineFunction<EventQueue&(NodeId), kContinuationBytes>;

    /**
     * Build controllers/directories/DRAM for every node of
     * @p network and register them with a new fabric.
     *
     * @param hooks    Machine-wide instrumentation seams, wired into
     *                 every component (nullable).
     * @param queueFor Event queue owning each node's components; when
     *                 empty every node runs on @p queue. A partitioned
     *                 machine maps node clusters to different queues.
     */
    MemorySystem(EventQueue& queue, noc::Network& network,
                 const MemoryConfig& config,
                 const Hooks* hooks = nullptr,
                 QueueFor queueFor = {});

    unsigned numNodes() const { return nodes; }

    CacheController& controller(NodeId n) { return *controllers.at(n); }
    Directory& directory(NodeId n) { return *directories.at(n); }
    Dram& dram(NodeId n) { return *drams.at(n); }

    AddressMap& addressMap() { return map; }
    const AddressMap& addressMap() const { return map; }
    Backend& backend() { return values; }
    Fabric& fabric() { return fab; }

  private:
    unsigned nodes;
    AddressMap map;
    Backend values;
    Fabric fab;
    std::vector<std::unique_ptr<Dram>> drams;
    std::vector<std::unique_ptr<Directory>> directories;
    std::vector<std::unique_ptr<CacheController>> controllers;
};

} // namespace mem
} // namespace tb

#endif // TB_MEM_MEMORY_SYSTEM_HH_

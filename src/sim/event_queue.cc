// lint:file(hot-path) -- event-core file: allocation-free callables (no std::function) and HMCSIM_DCHECK-only invariants, enforced by hmcsim-lint.
#include "sim/event_queue.hh"

#include <algorithm>
#include <iterator>
#include <utility>

#include "sim/check.hh"
#include "sim/logging.hh"

namespace hmcsim
{

namespace
{

/** Sort order for overflow runs: descending by (when, seq), so the
 *  key firing earliest sits at the back and migration pops are
 *  sequential O(1). */
struct FiresLater
{
    bool
    operator()(const auto &a, const auto &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

} // namespace

EventQueue::EventQueue() : heads(numBuckets, noNode) {}

void
EventQueue::growSlab()
{
    const std::size_t base = nodes.size();
    HMCSIM_DCHECK(base + chunkEvents < noNode, "event slab is full");
    chunks.push_back(std::make_unique<Event[]>(chunkEvents));
    nodes.resize(base + chunkEvents);
    // Thread the chunk in reverse so its lowest node is handed out
    // first and a warm queue cycles through a compact set of nodes.
    for (std::size_t i = chunkEvents; i-- > 0;) {
        nodes[base + i].next = freeHead;
        freeHead = static_cast<NodeId>(base + i);
    }
}

EventQueue::NodeId
EventQueue::acquireNode()
{
    if (freeHead == noNode)
        growSlab();
    const NodeId id = freeHead;
    freeHead = nodes[id].next;
    return id;
}

EventQueue::NodeId
EventQueue::place(Tick when, std::uint64_t seq)
{
    const NodeId id = acquireNode();
    nodes[id].when = when;
    nodes[id].seq = seq;
    ++numPending;

    const std::uint64_t abs = bucketOf(when);
    if (abs > cursorBucket && abs - cursorBucket < numBuckets) {
        linkIntoWheel(id, abs);
        return id;
    }
    const Key key{when, seq, id};
    if (abs == cursorBucket) {
        // Into the bucket being drained: sorted insert by (when, seq)
        // among the not-yet-fired keys. A fresh seq is the largest,
        // so it lands after every key at its tick; a reserved slot's
        // seq can sort before some of them.
        const auto pos = std::upper_bound(
            current.begin() + static_cast<std::ptrdiff_t>(drainIdx),
            current.end(), key, [](const Key &a, const Key &b) {
                return a.when != b.when ? a.when < b.when : a.seq < b.seq;
            });
        current.insert(pos, key);
        return id;
    }
    if (abs < cursorBucket) {
        // The cursor ran ahead over empty buckets (e.g. a peek past
        // the runUntil limit); pull it back. Undrained keys of the
        // old cursor bucket return to their wheel slot, where the lap
        // check will find them again.
        for (std::size_t i = drainIdx; i < current.size(); ++i)
            linkIntoWheel(current[i].node, cursorBucket);
        current.clear();
        drainIdx = 0;
        cursorBucket = abs;
        current.push_back(key);
        return id;
    }
    if (abs < stagingMinBucket)
        stagingMinBucket = abs;
    staging.push_back(key);
    ++overflowCount;
    return id;
}

void
EventQueue::foldStagingIntoRuns()
{
    // Sort the whole staging batch once (sequential, cache friendly)
    // and append it to the run ladder; a binary min-heap here would
    // pay one random-access sift-down per entry instead.
    std::sort(staging.begin(), staging.end(), FiresLater{});
    runs.emplace_back();
    runs.back().swap(staging);
    stagingMinBucket = noBucket;

    // Keep run sizes geometric (each at least twice the next) so an
    // adversarial schedule/advance interleave merges each entry only
    // O(log n) times instead of rescanning a flat buffer.
    while (runs.size() >= 2 &&
           runs[runs.size() - 2].size() < 2 * runs.back().size()) {
        auto &a = runs[runs.size() - 2];
        auto &b = runs.back();
        mergeScratch.clear();
        mergeScratch.reserve(a.size() + b.size());
        std::merge(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(mergeScratch), FiresLater{});
        a.swap(mergeScratch);
        runs.pop_back();
    }
}

void
EventQueue::migrateOverflow()
{
    const std::uint64_t windowEnd = cursorBucket + numBuckets;
    if (stagingMinBucket < windowEnd)
        foldStagingIntoRuns();

    // Runs are sorted descending, so every in-window key of a run is
    // a pop from its back. Migration order across runs is irrelevant:
    // the bucket drain re-sorts by (when, seq), so execution order --
    // and therefore every stat digest -- is unchanged.
    runsMinBucket = noBucket;
    for (auto &run : runs) {
        while (!run.empty() && bucketOf(run.back().when) < windowEnd) {
            linkIntoWheel(run.back().node, bucketOf(run.back().when));
            run.pop_back();
            --overflowCount;
        }
        if (!run.empty()) {
            const std::uint64_t b = bucketOf(run.back().when);
            if (b < runsMinBucket)
                runsMinBucket = b;
        }
    }
    std::erase_if(runs, [](const std::vector<Key> &r) { return r.empty(); });
}

std::uint64_t
EventQueue::firstOccupiedFrom(std::uint64_t from) const
{
    if (from >= numBuckets)
        return numBuckets;
    std::uint64_t word = from >> 6;
    const std::uint64_t bits = occupied[word] & (~std::uint64_t{0} << (from & 63));
    if (bits != 0)
        return (word << 6) |
               static_cast<std::uint64_t>(__builtin_ctzll(bits));
    // Find the next non-empty occupancy word through the summary.
    for (++word; word < occupiedWords; word = (word | 63) + 1) {
        const std::uint64_t summary =
            occupiedSummary[word >> 6] & (~std::uint64_t{0} << (word & 63));
        if (summary != 0) {
            word = (word & ~std::uint64_t{63}) |
                   static_cast<std::uint64_t>(__builtin_ctzll(summary));
            return (word << 6) |
                   static_cast<std::uint64_t>(
                       __builtin_ctzll(occupied[word]));
        }
    }
    return numBuckets;
}

std::uint64_t
EventQueue::nextOccupiedBucket() const
{
    // The first set slot at ring distance d in [1, numBuckets] from
    // the cursor's slot is the answer.
    const std::uint64_t cur = cursorBucket & bucketMask;
    const std::uint64_t ahead = firstOccupiedFrom(cur + 1);
    if (ahead != numBuckets)
        return cursorBucket + (ahead - cur);
    const std::uint64_t wrapped = firstOccupiedFrom(0);
    if (wrapped == numBuckets)
        return noBucket;
    // wrapped == cur: only the cursor's own slot is occupied, and its
    // entries belong to a later lap (possible after a cursor rewind).
    return cursorBucket + (numBuckets - cur) + wrapped;
}

const EventQueue::Key *
EventQueue::peekNext()
{
    for (;;) {
        if (drainIdx < current.size())
            return &current[drainIdx];
        if (numPending == 0)
            return nullptr;
        current.clear();
        drainIdx = 0;

        // Pull this lap's nodes out of the cursor's wheel slot; nodes
        // a full wheel revolution (or more) ahead stay linked.
        const std::uint64_t slot = cursorBucket & bucketMask;
        if (heads[slot] != noNode) {
            NodeId later = noNode;
            for (NodeId id = heads[slot]; id != noNode;) {
                const Node &node = nodes[id];
                const NodeId next = node.next;
                if (bucketOf(node.when) == cursorBucket) {
                    current.push_back({node.when, node.seq, id});
                } else {
                    nodes[id].next = later;
                    later = id;
                }
                id = next;
            }
            heads[slot] = later;
            if (later == noNode)
                clearOccupied(slot);
            if (current.size() > 1) {
                // The list is newest-first; reversed it is in schedule
                // order, which the sort by (when, seq) mostly keeps.
                // std::sort is in-place -- stable_sort would
                // heap-allocate a merge buffer on every bucket drain,
                // breaking the allocation-free steady state.
                std::reverse(current.begin(), current.end());
                std::sort(current.begin(), current.end(),
                          [](const Key &a, const Key &b) {
                              if (a.when != b.when)
                                  return a.when < b.when;
                              return a.seq < b.seq;
                          });
            }
            if (!current.empty())
                continue;
        }

        // Jump the cursor straight to the next bucket holding work --
        // the nearest occupied wheel slot or the earliest overflow
        // entry, whichever fires first -- instead of stepping one
        // ~4 ns bucket at a time through idle simulated time.
        const std::uint64_t wheel_next = nextOccupiedBucket();
        const std::uint64_t ovf_next = overflowMin();
        const std::uint64_t next =
            ovf_next < wheel_next ? ovf_next : wheel_next;
        HMCSIM_DCHECK(next != noBucket,
                      "pending=%llu but wheel and overflow empty",
                      static_cast<unsigned long long>(numPending));
        cursorBucket = next;
        if (ovf_next < cursorBucket + numBuckets)
            migrateOverflow();
    }
}

void
EventQueue::executeNext()
{
    const Key key = current[drainIdx];
    ++drainIdx;
    --numPending;
    HMCSIM_DCHECK(key.when >= _now,
                  "event time went backwards (when=%llu now=%llu)",
                  static_cast<unsigned long long>(key.when),
                  static_cast<unsigned long long>(_now));
    _now = key.when;
    doneSeq = key.seq + 1;
    check_detail::setCurrentTick(_now);
    ++numExecuted;
    // The event runs in its slab slot: chunks never move, so the
    // callback may schedule (and grow the slab) freely. The node is
    // recycled only after it returns.
    Event &ev = eventOf(key.node);
    ev();
    ev.reset();
    nodes[key.node].next = freeHead;
    freeHead = key.node;
    if (checkerRegistry && ++eventsSinceCheck >= checkEveryN) {
        eventsSinceCheck = 0;
        checkerRegistry->runAll(_now);
    }
}

bool
EventQueue::step()
{
    if (peekNext() == nullptr)
        return false;
    executeNext();
    return true;
}

Tick
EventQueue::runUntil(Tick limit)
{
    for (;;) {
        const Key *next = peekNext();
        if (next == nullptr || next->when > limit)
            break;
        executeNext();
    }
    if (_now < limit)
        _now = limit;
    // Everything at or before the limit ran, so every slot at now()
    // has passed. (A limit below now() leaves the position as is.)
    if (_now == limit)
        doneSeq = nextSeq;
    runCheckers();
    return _now;
}

void
EventQueue::runToCompletion()
{
    while (step()) {
    }
    doneSeq = nextSeq;
    runCheckers();
}

void
EventQueue::setCheckers(CheckerRegistry *registry, std::uint64_t every_n)
{
    // Config-time API validation, not per-event work.
    // lint:allow(hot-check)
    HMCSIM_CHECK(every_n > 0, "checker interval must be non-zero");
    checkerRegistry = registry;
    checkEveryN = every_n;
    eventsSinceCheck = 0;
}

void
EventQueue::runCheckers()
{
    if (checkerRegistry) {
        eventsSinceCheck = 0;
        checkerRegistry->runAll(_now);
    }
}

std::vector<EventQueue::PendingView>
EventQueue::pendingSnapshot() const
{
    std::vector<PendingView> views;
    views.reserve(numPending);
    const auto add = [this, &views](Tick when, std::uint64_t seq,
                                    NodeId id) {
        views.push_back({when, seq, &eventOf(id)});
    };
    for (std::size_t i = drainIdx; i < current.size(); ++i)
        add(current[i].when, current[i].seq, current[i].node);
    for (const NodeId head : heads)
        for (NodeId id = head; id != noNode; id = nodes[id].next)
            add(nodes[id].when, nodes[id].seq, id);
    for (const Key &key : staging)
        add(key.when, key.seq, key.node);
    for (const auto &run : runs)
        for (const Key &key : run)
            add(key.when, key.seq, key.node);
    HMCSIM_DCHECK(views.size() == numPending,
                  "pending snapshot found %llu entries, counter says %llu",
                  static_cast<unsigned long long>(views.size()),
                  static_cast<unsigned long long>(numPending));
    std::sort(views.begin(), views.end(),
              [](const PendingView &a, const PendingView &b) {
                  return a.seq < b.seq;
              });
    return views;
}

void
EventQueue::restoreBegin(Tick now, std::uint64_t next_seq,
                         std::uint64_t done_seq)
{
    // Restore-time API validation, not per-event work. A queue that
    // handed out seqs (even only reserved ones) would reissue them.
    // lint:allow(hot-check)
    HMCSIM_CHECK(numPending == 0 && numExecuted == 0 && nextSeq == 0,
                 "snapshot restore requires a fresh queue "
                 "(pending=%llu executed=%llu seq=%llu)",
                 static_cast<unsigned long long>(numPending),
                 static_cast<unsigned long long>(numExecuted),
                 static_cast<unsigned long long>(nextSeq));
    _now = now;
    nextSeq = next_seq;
    doneSeq = done_seq;
    // Without this the cursor would lap-walk from bucket zero and
    // every near-future entry would detour through the overflow
    // ladder; placing it on now()'s bucket reproduces the source
    // calendar's steady state.
    cursorBucket = bucketOf(now);
}

void
EventQueue::restoreFinish(std::uint64_t num_executed,
                          std::uint64_t events_since_check)
{
    numExecuted = num_executed;
    eventsSinceCheck = events_since_check;
}

void
EventQueue::reset()
{
    // Drop every pending event's capture (non-trivial ones release
    // what they hold) and return all nodes to the free list.
    freeHead = noNode;
    for (std::size_t c = chunks.size(); c-- > 0;) {
        for (std::size_t i = chunkEvents; i-- > 0;) {
            chunks[c][i].reset();
            const std::size_t id = c * chunkEvents + i;
            nodes[id].next = freeHead;
            freeHead = static_cast<NodeId>(id);
        }
    }
    std::fill(heads.begin(), heads.end(), noNode);
    current.clear();
    staging.clear();
    runs.clear();
    occupied.fill(0);
    occupiedSummary.fill(0);
    stagingMinBucket = noBucket;
    runsMinBucket = noBucket;
    overflowCount = 0;
    drainIdx = 0;
    cursorBucket = 0;
    numPending = 0;
    _now = 0;
    nextSeq = 0;
    doneSeq = 0;
    numExecuted = 0;
    eventsSinceCheck = 0;
}

} // namespace hmcsim

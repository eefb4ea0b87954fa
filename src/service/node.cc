#include "service/node.hh"

#include "gups/arrival_feed.hh"
#include "host/ac510.hh"

namespace hmcsim
{

namespace
{

/** Feed a pre-generated arrival vector and collect sojourns. */
class VectorArrivalFeed final : public ArrivalFeed
{
  public:
    VectorArrivalFeed(const std::vector<Tick> &arrivals,
                      ServiceStats &stats)
        : arrivals(arrivals), stats(stats)
    {
    }

    Tick
    peekArrival() const override
    {
        return pos < arrivals.size() ? arrivals[pos] : maxTick;
    }

    void
    pop() override
    {
        ++pos;
    }

    void
    complete(Tick arrival, Tick completion) override
    {
        stats.record(arrival, completion);
    }

  private:
    const std::vector<Tick> &arrivals;
    ServiceStats &stats;
    std::size_t pos = 0;
};

} // namespace

ServiceNodeResult
runServiceNode(const ServiceNodeConfig &cfg,
               const std::vector<Tick> &arrivals)
{
    ServiceNodeResult res;
    // One sojourn sample per arrival: runToCompletion below completes
    // every arrival exactly once.
    res.stats.sojourn.reserve(arrivals.size());
    VectorArrivalFeed feed(arrivals, res.stats);

    // One port per node: the feed is single-consumer, and one port's
    // tag pool (64 outstanding) is the per-node admission limit.
    Ac510Config sys;
    sys.numPorts = 1;
    sys.port.mix = RequestMix::ReadOnly;
    sys.port.requestSize = cfg.requestSize;
    sys.port.mode = cfg.mode;
    sys.port.mask = cfg.pattern.mask;
    sys.port.antiMask = cfg.pattern.antiMask;
    sys.port.arrivals = &feed;
    sys.device = cfg.device;
    sys.controller = cfg.controller;
    sys.seed = cfg.seed;

    Ac510Module module(sys);
    module.start();
    module.runToCompletion();
    return res;
}

} // namespace hmcsim

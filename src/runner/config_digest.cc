#include "runner/config_digest.hh"

#include <cstring>
#include <string>
#include <string_view>

#include "host/experiment_fields.hh"

namespace hmcsim
{

namespace
{

/** FNV-1a accumulator with typed, width-explicit append helpers. */
class Fnv1a
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash ^= p[i];
            hash *= 0x100000001B3ULL;
        }
    }

    void
    u64(std::uint64_t v)
    {
        bytes(&v, sizeof(v));
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** Length-prefixed so "ab","c" never collides with "a","bc". */
    void
    str(std::string_view s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return hash; }

  private:
    std::uint64_t hash = 0xCBF29CE484222325ULL;
};

/**
 * Field-table visitor: every field in walk order, strings length-
 * prefixed, doubles as their bit pattern, everything else widened to
 * 64 bits. Touches no key and allocates nothing.
 */
struct DigestVisitor
{
    Fnv1a &h;
    bool withSeed;
    bool withMeasure;

    template <typename T>
    void
    operator()(const FieldKey &key, const T &v)
    {
        if ((key.role == FieldRole::Seed && !withSeed) ||
            (key.role == FieldRole::Measure && !withMeasure))
            return;
        if constexpr (std::is_same_v<T, std::string>)
            h.str(v);
        else if constexpr (std::is_same_v<T, double>)
            h.f64(v);
        else
            h.u64(static_cast<std::uint64_t>(v));
    }

    template <typename E, std::size_t N>
    void
    operator()(const FieldKey &key, const E &v, const E (&)[N])
    {
        (*this)(key, static_cast<std::uint64_t>(v));
    }
};

/**
 * @p tag names the serialization version: bump it whenever the field
 * table changes, so stale on-disk cache entries can never match new
 * digests.
 */
template <typename Cfg>
std::uint64_t
digest(std::string_view tag, const Cfg &cfg, bool with_seed,
       bool with_measure)
{
    Fnv1a h;
    h.str(tag);
    forEachField(cfg, DigestVisitor{h, with_seed, with_measure});
    return h.value();
}

} // namespace

std::uint64_t
configDigest(const ExperimentConfig &cfg, bool include_seed)
{
    // v2: vault backend selection + per-backend parameters.
    return digest("hmcsim.experiment.v2", cfg, include_seed, true);
}

std::uint64_t
warmupDigest(const ExperimentConfig &cfg)
{
    // Distinct tag: warm-up identities live in their own namespace.
    // v1: configDigest v2 minus the measure window, seed included --
    // the measurement window starts after the fork point, so it
    // cannot influence the warm state.
    return digest("hmcsim.warmup.v1", cfg, true, false);
}

std::uint64_t
configDigest(const StreamExperimentConfig &cfg, bool include_seed)
{
    // Distinct tag: a stream config can never collide with a
    // bandwidth/latency config, even with identical shared fields.
    // v2: vault backend selection + per-backend parameters.
    return digest("hmcsim.stream.v2", cfg, include_seed, true);
}

} // namespace hmcsim

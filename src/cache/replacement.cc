#include "cache/replacement.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace bsim {

const char *
replPolicyName(ReplPolicyKind k)
{
    switch (k) {
      case ReplPolicyKind::LRU:
        return "lru";
      case ReplPolicyKind::Random:
        return "random";
      case ReplPolicyKind::FIFO:
        return "fifo";
      case ReplPolicyKind::TreePLRU:
        return "plru";
      case ReplPolicyKind::NMRU:
        return "nmru";
    }
    return "?";
}

// ---------------------------------------------------------------- LRU

void
LruPolicy::reset(std::size_t sets, std::size_t ways)
{
    ways_ = ways;
    now_ = 0;
    lastUse_.assign(sets * ways, 0);
}

void
LruPolicy::touch(std::size_t set, std::size_t way)
{
    touchFast(set, way);
}

void
LruPolicy::fill(std::size_t set, std::size_t way)
{
    touch(set, way);
}

std::size_t
LruPolicy::victim(std::size_t set)
{
    std::size_t best = 0;
    Tick best_t = lastUse_[set * ways_];
    for (std::size_t w = 1; w < ways_; ++w) {
        const Tick t = lastUse_[set * ways_ + w];
        if (t < best_t) {
            best_t = t;
            best = w;
        }
    }
    return best;
}

// ------------------------------------------------------------- Random

RandomPolicy::RandomPolicy(std::uint64_t seed) : seed_(seed), rng_(seed)
{
}

void
RandomPolicy::reset(std::size_t, std::size_t ways)
{
    ways_ = ways;
    rng_ = Rng(seed_);
}

void
RandomPolicy::touch(std::size_t, std::size_t)
{
}

void
RandomPolicy::fill(std::size_t, std::size_t)
{
}

std::size_t
RandomPolicy::victim(std::size_t)
{
    return rng_.nextBounded(ways_);
}

// --------------------------------------------------------------- FIFO

void
FifoPolicy::reset(std::size_t sets, std::size_t ways)
{
    ways_ = ways;
    now_ = 0;
    fillTime_.assign(sets * ways, 0);
}

void
FifoPolicy::touch(std::size_t, std::size_t)
{
}

void
FifoPolicy::fill(std::size_t set, std::size_t way)
{
    fillTime_[set * ways_ + way] = ++now_;
}

std::size_t
FifoPolicy::victim(std::size_t set)
{
    std::size_t best = 0;
    Tick best_t = fillTime_[set * ways_];
    for (std::size_t w = 1; w < ways_; ++w) {
        const Tick t = fillTime_[set * ways_ + w];
        if (t < best_t) {
            best_t = t;
            best = w;
        }
    }
    return best;
}

// ---------------------------------------------------------- Tree-PLRU

void
TreePlruPolicy::reset(std::size_t sets, std::size_t ways)
{
    bsim_assert(isPowerOfTwo(ways), "tree-PLRU needs power-of-two ways");
    ways_ = ways;
    bits_.assign(sets * (ways > 1 ? ways - 1 : 1), 0);
}

void
TreePlruPolicy::touch(std::size_t set, std::size_t way)
{
    if (ways_ < 2)
        return;
    // Walk from the root; at each node record that we went towards 'way'
    // so the PLRU bit points the *other* direction.
    std::uint8_t *tree = &bits_[set * (ways_ - 1)];
    std::size_t node = 0;
    std::size_t lo = 0, hi = ways_;
    while (hi - lo > 1) {
        const std::size_t mid = (lo + hi) / 2;
        const bool right = way >= mid;
        tree[node] = right ? 0 : 1; // 1 = victim side is right
        node = 2 * node + (right ? 2 : 1);
        if (right)
            lo = mid;
        else
            hi = mid;
    }
}

void
TreePlruPolicy::fill(std::size_t set, std::size_t way)
{
    touch(set, way);
}

std::size_t
TreePlruPolicy::victim(std::size_t set)
{
    if (ways_ < 2)
        return 0;
    const std::uint8_t *tree = &bits_[set * (ways_ - 1)];
    std::size_t node = 0;
    std::size_t lo = 0, hi = ways_;
    while (hi - lo > 1) {
        const std::size_t mid = (lo + hi) / 2;
        const bool right = tree[node] != 0;
        node = 2 * node + (right ? 2 : 1);
        if (right)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

// ---------------------------------------------------------------- NMRU

NmruPolicy::NmruPolicy(std::uint64_t seed) : seed_(seed), rng_(seed)
{
}

void
NmruPolicy::reset(std::size_t sets, std::size_t ways)
{
    ways_ = ways;
    rng_ = Rng(seed_);
    mru_.assign(sets, 0);
}

void
NmruPolicy::touch(std::size_t set, std::size_t way)
{
    mru_[set] = static_cast<std::uint32_t>(way);
}

void
NmruPolicy::fill(std::size_t set, std::size_t way)
{
    touch(set, way);
}

std::size_t
NmruPolicy::victim(std::size_t set)
{
    if (ways_ == 1)
        return 0;
    const std::size_t pick = rng_.nextBounded(ways_ - 1);
    return pick >= mru_[set] ? pick + 1 : pick;
}

std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(ReplPolicyKind kind, std::uint64_t seed)
{
    switch (kind) {
      case ReplPolicyKind::LRU:
        return std::make_unique<LruPolicy>();
      case ReplPolicyKind::Random:
        return std::make_unique<RandomPolicy>(seed);
      case ReplPolicyKind::FIFO:
        return std::make_unique<FifoPolicy>();
      case ReplPolicyKind::TreePLRU:
        return std::make_unique<TreePlruPolicy>();
      case ReplPolicyKind::NMRU:
        return std::make_unique<NmruPolicy>(seed);
    }
    bsim_panic("bad policy kind");
}

} // namespace bsim

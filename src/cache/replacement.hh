/**
 * @file
 * Replacement policies for set-associative structures and for the B-Cache's
 * victim pools. The paper evaluates LRU and random (Section 3.3); FIFO,
 * tree-PLRU and NMRU are provided for the replacement ablation bench.
 */

#ifndef BSIM_CACHE_REPLACEMENT_HH
#define BSIM_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace bsim {

/** Kinds of replacement policies available by name. */
enum class ReplPolicyKind : std::uint8_t {
    LRU,
    Random,
    FIFO,
    TreePLRU,
    NMRU,
};

const char *replPolicyName(ReplPolicyKind k);

/**
 * Per-cache replacement state over (sets x ways).
 *
 * The owning cache reports fills and touches; victim() is only consulted
 * when every way in the set is valid (the cache fills invalid ways first).
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** (Re)initialize for a sets x ways structure. */
    virtual void reset(std::size_t sets, std::size_t ways) = 0;

    /** A hit touched (set, way). */
    virtual void touch(std::size_t set, std::size_t way) = 0;

    /** (set, way) was refilled with a new block. */
    virtual void fill(std::size_t set, std::size_t way) = 0;

    /** Pick a victim way in a fully valid set. */
    virtual std::size_t victim(std::size_t set) = 0;

    virtual ReplPolicyKind kind() const = 0;
    std::string name() const { return replPolicyName(kind()); }
};

/** True least-recently-used via per-way timestamps. */
class LruPolicy : public ReplacementPolicy
{
  public:
    void reset(std::size_t sets, std::size_t ways) override;
    void touch(std::size_t set, std::size_t way) override;
    void fill(std::size_t set, std::size_t way) override;
    std::size_t victim(std::size_t set) override;
    ReplPolicyKind kind() const override { return ReplPolicyKind::LRU; }

    /**
     * Non-virtual, inlinable equivalent of touch() for hot loops that
     * have identified the policy as LRU (the batched access paths
     * devirtualize once per batch). Must stay in lockstep with touch().
     */
    void
    touchFast(std::size_t set, std::size_t way)
    {
        lastUse_[set * ways_ + way] = ++now_;
    }

  private:
    std::size_t ways_ = 0;
    Tick now_ = 0;
    std::vector<Tick> lastUse_;
};

/** Uniform random victim, deterministic from the seed. */
class RandomPolicy : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(std::uint64_t seed = 1);
    void reset(std::size_t sets, std::size_t ways) override;
    void touch(std::size_t set, std::size_t way) override;
    void fill(std::size_t set, std::size_t way) override;
    std::size_t victim(std::size_t set) override;
    ReplPolicyKind kind() const override { return ReplPolicyKind::Random; }

  private:
    std::uint64_t seed_;
    Rng rng_;
    std::size_t ways_ = 0;
};

/** First-in first-out by fill order. */
class FifoPolicy : public ReplacementPolicy
{
  public:
    void reset(std::size_t sets, std::size_t ways) override;
    void touch(std::size_t set, std::size_t way) override;
    void fill(std::size_t set, std::size_t way) override;
    std::size_t victim(std::size_t set) override;
    ReplPolicyKind kind() const override { return ReplPolicyKind::FIFO; }

  private:
    std::size_t ways_ = 0;
    Tick now_ = 0;
    std::vector<Tick> fillTime_;
};

/** Binary-tree pseudo-LRU (the common hardware approximation). */
class TreePlruPolicy : public ReplacementPolicy
{
  public:
    void reset(std::size_t sets, std::size_t ways) override;
    void touch(std::size_t set, std::size_t way) override;
    void fill(std::size_t set, std::size_t way) override;
    std::size_t victim(std::size_t set) override;
    ReplPolicyKind kind() const override { return ReplPolicyKind::TreePLRU; }

  private:
    std::size_t ways_ = 0;
    /** ways_ - 1 internal tree nodes per set, stored flat. */
    std::vector<std::uint8_t> bits_;
};

/** Not-most-recently-used: random among all ways except the MRU one. */
class NmruPolicy : public ReplacementPolicy
{
  public:
    explicit NmruPolicy(std::uint64_t seed = 1);
    void reset(std::size_t sets, std::size_t ways) override;
    void touch(std::size_t set, std::size_t way) override;
    void fill(std::size_t set, std::size_t way) override;
    std::size_t victim(std::size_t set) override;
    ReplPolicyKind kind() const override { return ReplPolicyKind::NMRU; }

  private:
    std::uint64_t seed_;
    Rng rng_;
    std::size_t ways_ = 0;
    std::vector<std::uint32_t> mru_;
};

/** Factory. */
std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(ReplPolicyKind kind, std::uint64_t seed = 1);

} // namespace bsim

#endif // BSIM_CACHE_REPLACEMENT_HH

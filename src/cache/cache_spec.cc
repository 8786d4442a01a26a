#include "cache/cache_spec.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/logging.hh"
#include "common/strings.hh"

namespace bsim {

namespace {

/** Non-fatal replacement-policy lookup (the grammar's error channel). */
ReplPolicyKind
replFromSpec(const std::string &name)
{
    const std::string n = toLower(name);
    if (n == "lru")
        return ReplPolicyKind::LRU;
    if (n == "random" || n == "rand")
        return ReplPolicyKind::Random;
    if (n == "fifo")
        return ReplPolicyKind::FIFO;
    if (n == "plru" || n == "tree-plru")
        return ReplPolicyKind::TreePLRU;
    if (n == "nmru")
        return ReplPolicyKind::NMRU;
    throw CacheSpecError("unknown replacement policy '" + name +
                         "'; expected lru|random|fifo|plru|nmru");
}

WritePolicy
writePolicyFromSpec(const std::string &name)
{
    const std::string n = toLower(name);
    if (n == "wb")
        return WritePolicy::WriteBackAllocate;
    if (n == "wt")
        return WritePolicy::WriteThroughNoAllocate;
    throw CacheSpecError("unknown write policy '" + name +
                         "'; expected wb (write-back/allocate) or wt "
                         "(write-through/no-allocate)");
}

const char *
writePolicySpecToken(WritePolicy p)
{
    return p == WritePolicy::WriteBackAllocate ? "wb" : "wt";
}

/**
 * Parse "16kB" / "16k" / "2MB" / "16384" into bytes. The canonical
 * printer uses sizeString(), so its kB/MB forms must parse back.
 */
std::uint64_t
parseSize(const std::string &text, const std::string &what)
{
    if (text.empty())
        throw CacheSpecError("empty " + what +
                             "; expected e.g. 16kB, 32k or 16384");
    char *end = nullptr;
    const unsigned long long n = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str())
        throw CacheSpecError("bad " + what + " '" + text +
                             "'; expected e.g. 16kB, 32k or 16384");
    std::string suffix = toLower(end);
    std::uint64_t scale = 1;
    if (suffix == "k" || suffix == "kb")
        scale = 1ull << 10;
    else if (suffix == "m" || suffix == "mb")
        scale = 1ull << 20;
    else if (!suffix.empty() && suffix != "b")
        throw CacheSpecError("bad " + what + " suffix '" +
                             std::string(end) +
                             "' in '" + text + "'; expected k/kB/M/MB "
                             "or a plain byte count");
    if (n == 0)
        throw CacheSpecError(what + " must be nonzero in '" + text + "'");
    return n * scale;
}

std::uint64_t
parseCount(const std::string &text, const std::string &what)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || end == text.c_str() || *end)
        throw CacheSpecError("bad " + what + " '" + text +
                             "'; expected a decimal count");
    return n;
}

/** "16kB" -> "16kB"; used for canonical size tokens in printed specs. */
std::string
sizeToken(std::uint64_t bytes)
{
    return sizeString(bytes);
}

/** Shared `[,repl=R][,wp=P][,line=B]` canonical tail. */
std::string
commonTail(const CacheConfig &c, bool with_wp)
{
    std::string out;
    if (c.repl != ReplPolicyKind::LRU)
        out += std::string(",repl=") + replPolicyName(c.repl);
    if (with_wp && c.writePolicy != WritePolicy::WriteBackAllocate)
        out += std::string(",wp=") + writePolicySpecToken(c.writePolicy);
    if (c.lineBytes != 32)
        out += ",line=" + std::to_string(c.lineBytes);
    return out;
}

void
applyCommon(CacheConfig &c, SpecParams &p, bool with_wp)
{
    if (p.has("repl"))
        c.repl = replFromSpec(p.word("repl", "lru"));
    if (with_wp && p.has("wp"))
        c.writePolicy = writePolicyFromSpec(p.word("wp", "wb"));
}

} // namespace

// ---------------------------------------------------------------------
// SpecParams

SpecParams::SpecParams(std::string kind, std::vector<std::string> tokens)
    : kind_(std::move(kind))
{
    for (std::string &t : tokens) {
        Token tok;
        tok.text = t;
        const std::size_t eq = t.find('=');
        if (eq != std::string::npos) {
            tok.key = toLower(t.substr(0, eq));
            tok.value = t.substr(eq + 1);
            if (tok.key.empty() || tok.value.empty())
                throw CacheSpecError(kind_ + ": malformed parameter '" +
                                     t + "'; expected key=value");
        } else {
            // Suffixed count: digits followed by one letter ("8w").
            std::size_t i = 0;
            while (i < t.size() &&
                   std::isdigit(static_cast<unsigned char>(t[i])))
                ++i;
            if (i == 0 || i + 1 != t.size())
                throw CacheSpecError(
                    kind_ + ": malformed parameter '" + t +
                    "'; expected key=value or a suffixed count like "
                    "8w / 16e");
            tok.key = std::string(1, static_cast<char>(std::tolower(
                          static_cast<unsigned char>(t[i]))));
            tok.value = t.substr(0, i);
        }
        tokens_.push_back(std::move(tok));
    }
}

SpecParams::Token *
SpecParams::find(const std::string &key)
{
    for (Token &t : tokens_)
        if (t.key == key)
            return &t;
    return nullptr;
}

bool
SpecParams::has(const std::string &key) const
{
    for (const Token &t : tokens_)
        if (t.key == key)
            return true;
    return false;
}

std::uint64_t
SpecParams::count(const std::string &key, std::uint64_t fallback)
{
    Token *t = find(key);
    if (!t)
        return fallback;
    t->used = true;
    return parseCount(t->value, kind_ + " parameter " + key);
}

std::uint64_t
SpecParams::size(const std::string &key, std::uint64_t fallback)
{
    Token *t = find(key);
    if (!t)
        return fallback;
    t->used = true;
    return parseSize(t->value, kind_ + " parameter " + key);
}

std::string
SpecParams::word(const std::string &key, const std::string &fallback)
{
    Token *t = find(key);
    if (!t)
        return fallback;
    t->used = true;
    return t->value;
}

std::uint64_t
SpecParams::suffixed(char suffix, std::uint64_t fallback)
{
    return count(std::string(1, suffix), fallback);
}

void
SpecParams::finish(const std::string &accepted) const
{
    for (const Token &t : tokens_)
        if (!t.used)
            throw CacheSpecError(kind_ + ": unknown parameter '" +
                                 t.text + "'; accepted: " + accepted);
}

// ---------------------------------------------------------------------
// Registry

CacheFactory &
CacheFactory::instance()
{
    static CacheFactory factory;
    return factory;
}

void
CacheFactory::registerEntry(CacheSpecEntry entry)
{
    bsim_assert(find(entry.name) == nullptr,
                "duplicate cache-spec registration");
    entries_.push_back(std::move(entry));
}

const CacheSpecEntry *
CacheFactory::find(const std::string &name) const
{
    const std::string n = toLower(name);
    for (const CacheSpecEntry &e : entries_) {
        if (e.name == n)
            return &e;
        if (std::find(e.aliases.begin(), e.aliases.end(), n) !=
            e.aliases.end())
            return &e;
    }
    return nullptr;
}

const CacheSpecEntry *
CacheFactory::entryFor(CacheKind kind) const
{
    for (const CacheSpecEntry &e : entries_)
        if (e.kind == kind)
            return &e;
    return nullptr;
}

CacheSpecRegistrar::CacheSpecRegistrar(CacheSpecEntry entry)
{
    CacheFactory::instance().registerEntry(std::move(entry));
}

// ---------------------------------------------------------------------
// The nine built-in grammars. Each parse hook funnels through the same
// CacheConfig factory helper the harnesses use, so a parsed config is
// field-for-field (and label-for-label) identical to a hand-built one.

BSIM_REGISTER_CACHE_SPEC(
    regDm,
    {"dm",
     {"direct", "directmapped"},
     "dm:<size>[,line=B]",
     "direct-mapped baseline (conventional decoder)",
     CacheKind::SetAssoc,
     [](std::uint64_t size, SpecParams &p) {
         CacheConfig c = CacheConfig::directMapped(
             size, static_cast<std::uint32_t>(p.count("line", 32)));
         applyCommon(c, p, true);
         p.finish("line=, repl=, wp=");
         return c;
     },
     nullptr /* printed via the "sa" entry below */})

BSIM_REGISTER_CACHE_SPEC(
    regSa,
    {"sa",
     {"setassoc"},
     "sa:<size>,<N>w[,repl=R][,wp=wb|wt][,line=B]",
     "set-associative (LRU default; ways=1 prints as dm:)",
     CacheKind::SetAssoc,
     [](std::uint64_t size, SpecParams &p) {
         const auto ways =
             static_cast<std::uint32_t>(p.suffixed('w', 1));
         const auto line =
             static_cast<std::uint32_t>(p.count("line", 32));
         CacheConfig c = ways == 1
                             ? CacheConfig::directMapped(size, line)
                             : CacheConfig::setAssoc(
                                   size, ways, ReplPolicyKind::LRU,
                                   line);
         applyCommon(c, p, true);
         p.finish("Nw, repl=, wp=, line=");
         return c;
     },
     [](const CacheConfig &c) {
         // ways=1 canonicalizes to the dm: spelling.
         if (c.ways == 1)
             return std::string("@dm") + commonTail(c, true);
         return "," + std::to_string(c.ways) + "w" + commonTail(c, true);
     }})

BSIM_REGISTER_CACHE_SPEC(
    regVictim,
    {"victim",
     {},
     "victim:<size>[,<N>e][,line=B]   (also: dm:<size>+victim:<N>)",
     "direct-mapped + fully associative victim buffer",
     CacheKind::Victim,
     [](std::uint64_t size, SpecParams &p) {
         CacheConfig c = CacheConfig::victim(
             size, static_cast<std::size_t>(p.suffixed('e', 16)),
             static_cast<std::uint32_t>(p.count("line", 32)));
         p.finish("Ne, line=");
         return c;
     },
     [](const CacheConfig &c) {
         std::string out = "," + std::to_string(c.victimEntries) + "e";
         if (c.lineBytes != 32)
             out += ",line=" + std::to_string(c.lineBytes);
         return out;
     }})

BSIM_REGISTER_CACHE_SPEC(
    regBCache,
    {"bcache",
     {"bc"},
     "bcache:<size>[,mf=N][,bas=N][,repl=R][,wp=wb|wt][,line=B]",
     "the paper's B-Cache (programmable decoder, MF/BAS)",
     CacheKind::BCache,
     [](std::uint64_t size, SpecParams &p) {
         CacheConfig c = CacheConfig::bcache(
             size, static_cast<std::uint32_t>(p.count("mf", 8)),
             static_cast<std::uint32_t>(p.count("bas", 8)),
             ReplPolicyKind::LRU,
             static_cast<std::uint32_t>(p.count("line", 32)));
         applyCommon(c, p, true);
         p.finish("mf=, bas=, repl=, wp=, line=");
         return c;
     },
     [](const CacheConfig &c) {
         return ",mf=" + std::to_string(c.mf) +
                ",bas=" + std::to_string(c.bas) + commonTail(c, true);
     }})

BSIM_REGISTER_CACHE_SPEC(
    regColumn,
    {"column",
     {"ca"},
     "column:<size>[,line=B]",
     "column-associative DM (rehash second location)",
     CacheKind::ColumnAssoc,
     [](std::uint64_t size, SpecParams &p) {
         CacheConfig c = CacheConfig::columnAssoc(
             size, static_cast<std::uint32_t>(p.count("line", 32)));
         p.finish("line=");
         return c;
     },
     [](const CacheConfig &c) {
         return c.lineBytes != 32
                    ? ",line=" + std::to_string(c.lineBytes)
                    : std::string();
     }})

BSIM_REGISTER_CACHE_SPEC(
    regSkew,
    {"skew",
     {"skewed"},
     "skew:<size>[,line=B]",
     "two-way skewed-associative (per-bank hash)",
     CacheKind::Skewed,
     [](std::uint64_t size, SpecParams &p) {
         CacheConfig c = CacheConfig::skewed(
             size, static_cast<std::uint32_t>(p.count("line", 32)));
         p.finish("line=");
         return c;
     },
     [](const CacheConfig &c) {
         return c.lineBytes != 32
                    ? ",line=" + std::to_string(c.lineBytes)
                    : std::string();
     }})

BSIM_REGISTER_CACHE_SPEC(
    regHac,
    {"hac",
     {},
     "hac:<size>[,sub=S][,repl=R][,line=B]",
     "highly associative CAM-tag cache (per-subarray FA)",
     CacheKind::Hac,
     [](std::uint64_t size, SpecParams &p) {
         CacheConfig c = CacheConfig::hac(
             size, p.size("sub", 1024),
             static_cast<std::uint32_t>(p.count("line", 32)));
         applyCommon(c, p, false);
         p.finish("sub=, repl=, line=");
         return c;
     },
     [](const CacheConfig &c) {
         std::string out;
         if (c.hacSubarrayBytes != 1024)
             out += ",sub=" + sizeToken(c.hacSubarrayBytes);
         return out + commonTail(c, false);
     }})

BSIM_REGISTER_CACHE_SPEC(
    regXor,
    {"xor",
     {"xordm"},
     "xor:<size>[,line=B]",
     "XOR-mapped direct-mapped (tag-xor index hash)",
     CacheKind::XorDm,
     [](std::uint64_t size, SpecParams &p) {
         CacheConfig c = CacheConfig::xorDm(
             size, static_cast<std::uint32_t>(p.count("line", 32)));
         p.finish("line=");
         return c;
     },
     [](const CacheConfig &c) {
         return c.lineBytes != 32
                    ? ",line=" + std::to_string(c.lineBytes)
                    : std::string();
     }})

BSIM_REGISTER_CACHE_SPEC(
    regPad,
    {"pad",
     {"partial", "pmatch"},
     "pad:<size>[,<N>w][,bits=N][,repl=R][,line=B]",
     "partial-address-matching way predictor over an SA array",
     CacheKind::PartialMatch,
     [](std::uint64_t size, SpecParams &p) {
         CacheConfig c = CacheConfig::partialMatch(
             size, static_cast<std::uint32_t>(p.suffixed('w', 2)),
             static_cast<unsigned>(p.count("bits", 5)),
             static_cast<std::uint32_t>(p.count("line", 32)));
         applyCommon(c, p, false);
         p.finish("Nw, bits=, repl=, line=");
         return c;
     },
     [](const CacheConfig &c) {
         std::string out = "," + std::to_string(c.ways) + "w,bits=" +
                           std::to_string(c.partialBits);
         return out + commonTail(c, false);
     }})

// ---------------------------------------------------------------------
// Parse / print

namespace {

/** Split "kind:rest" and the comma-separated parameter tail. */
CacheConfig
parseOneSpec(const std::string &spec)
{
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos || colon == 0)
        throw CacheSpecError(
            "bad cache spec '" + spec +
            "': expected <kind>:<size>[,<params>] (try --list-caches)");
    const std::string kind = spec.substr(0, colon);
    const CacheSpecEntry *entry = CacheFactory::instance().find(kind);
    if (!entry) {
        std::vector<std::string> names;
        for (const CacheSpecEntry &e :
             CacheFactory::instance().entries())
            names.push_back(e.name);
        throw CacheSpecError("unknown cache kind '" + kind +
                             "' in '" + spec + "'; registered: " +
                             join(names, ", "));
    }
    std::vector<std::string> fields =
        split(spec.substr(colon + 1), ',');
    if (fields.empty())
        throw CacheSpecError(entry->name + ": missing size in '" +
                             spec + "'; synopsis: " + entry->synopsis);
    const std::uint64_t size = parseSize(fields.front(),
                                         entry->name + " size");
    fields.erase(fields.begin());
    SpecParams params(entry->name, std::move(fields));
    return entry->parse(size, params);
}

} // namespace

CacheConfig
parseCacheSpec(const std::string &spec)
{
    // `+victim:<N>` composition: a DM L1 with a victim buffer IS the
    // Victim kind, so the composed spelling funnels into it.
    const std::size_t plus = spec.find('+');
    if (plus != std::string::npos) {
        const std::string head = spec.substr(0, plus);
        const std::string tail = spec.substr(plus + 1);
        if (tail.rfind("victim:", 0) != 0)
            throw CacheSpecError(
                "bad composition '" + spec +
                "': only '+victim:<entries>' may follow a base spec");
        CacheConfig base = parseOneSpec(head);
        if (base.kind != CacheKind::SetAssoc || base.ways != 1)
            throw CacheSpecError(
                "bad composition '" + spec +
                "': a victim buffer attaches to a direct-mapped base "
                "(dm:<size>)");
        return CacheConfig::victim(
            base.sizeBytes,
            static_cast<std::size_t>(
                parseCount(tail.substr(7), "victim entries")),
            base.lineBytes);
    }
    return parseOneSpec(spec);
}

std::string
printCacheSpec(const CacheConfig &config)
{
    const CacheFactory &f = CacheFactory::instance();
    const CacheSpecEntry *entry = f.entryFor(config.kind);
    bsim_assert(entry, "unregistered cache kind");
    // SetAssoc registers twice (dm/sa); the sa entry owns printing.
    if (config.kind == CacheKind::SetAssoc)
        entry = f.find("sa");
    std::string tail = entry->printParams
                           ? entry->printParams(config)
                           : std::string();
    // "@dm" redirects: canonical spelling of a 1-way SA config is dm:.
    if (tail.rfind("@dm", 0) == 0)
        return "dm:" + sizeToken(config.sizeBytes) + tail.substr(3);
    return entry->name + ":" + sizeToken(config.sizeBytes) + tail;
}

std::string
listCacheSpecs()
{
    std::string out = "registered cache specs (bsim --cache <spec>):\n";
    for (const CacheSpecEntry &e : CacheFactory::instance().entries()) {
        out += "  " + e.synopsis + "\n      " + e.help;
        if (!e.aliases.empty())
            out += " (aliases: " + join(e.aliases, ", ") + ")";
        out += "\n";
    }
    out += "compositions:\n"
           "  dm:<size>+victim:<N>      sugar for victim:<size>,<N>e\n"
           "  <l1>/l2:<size>,<N>w,<B>l,<C>c/mem:<C>c"
           "   hierarchy spec (timed runs)\n";
    return out;
}

// ---------------------------------------------------------------------
// Equality (the round-trip contract)

bool
operator==(const CacheConfig &a, const CacheConfig &b)
{
    if (a.kind != b.kind || a.label != b.label ||
        a.sizeBytes != b.sizeBytes || a.lineBytes != b.lineBytes ||
        a.repl != b.repl)
        return false;
    switch (a.kind) {
      case CacheKind::SetAssoc:
        return a.ways == b.ways && a.writePolicy == b.writePolicy;
      case CacheKind::Victim:
        return a.victimEntries == b.victimEntries;
      case CacheKind::BCache:
        return a.mf == b.mf && a.bas == b.bas &&
               a.writePolicy == b.writePolicy;
      case CacheKind::Hac:
        return a.hacSubarrayBytes == b.hacSubarrayBytes;
      case CacheKind::PartialMatch:
        return a.ways == b.ways && a.partialBits == b.partialBits;
      case CacheKind::ColumnAssoc:
      case CacheKind::Skewed:
      case CacheKind::XorDm:
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------
// Factory helpers (labels are part of the harness output contract —
// pinned by tests/test_sim_config.cc)

CacheConfig
CacheConfig::directMapped(std::uint64_t size, std::uint32_t line)
{
    CacheConfig c;
    c.kind = CacheKind::SetAssoc;
    c.sizeBytes = size;
    c.lineBytes = line;
    c.ways = 1;
    c.label = sizeString(size) + "-dm";
    return c;
}

CacheConfig
CacheConfig::setAssoc(std::uint64_t size, std::uint32_t ways,
                      ReplPolicyKind repl, std::uint32_t line)
{
    CacheConfig c;
    c.kind = CacheKind::SetAssoc;
    c.sizeBytes = size;
    c.lineBytes = line;
    c.ways = ways;
    c.repl = repl;
    c.label = strprintf("%uway", ways);
    return c;
}

CacheConfig
CacheConfig::victim(std::uint64_t size, std::size_t entries,
                    std::uint32_t line)
{
    CacheConfig c;
    c.kind = CacheKind::Victim;
    c.sizeBytes = size;
    c.lineBytes = line;
    c.victimEntries = entries;
    c.label = strprintf("victim%zu", entries);
    return c;
}

CacheConfig
CacheConfig::bcache(std::uint64_t size, std::uint32_t mf,
                    std::uint32_t bas, ReplPolicyKind repl,
                    std::uint32_t line)
{
    CacheConfig c;
    c.kind = CacheKind::BCache;
    c.sizeBytes = size;
    c.lineBytes = line;
    c.mf = mf;
    c.bas = bas;
    c.repl = repl;
    c.label = strprintf("MF%u-BAS%u", mf, bas);
    return c;
}

CacheConfig
CacheConfig::columnAssoc(std::uint64_t size, std::uint32_t line)
{
    CacheConfig c;
    c.kind = CacheKind::ColumnAssoc;
    c.sizeBytes = size;
    c.lineBytes = line;
    c.label = "column";
    return c;
}

CacheConfig
CacheConfig::skewed(std::uint64_t size, std::uint32_t line)
{
    CacheConfig c;
    c.kind = CacheKind::Skewed;
    c.sizeBytes = size;
    c.lineBytes = line;
    c.ways = 2;
    c.label = "skewed2";
    return c;
}

CacheConfig
CacheConfig::hac(std::uint64_t size, std::uint64_t subarray,
                 std::uint32_t line)
{
    CacheConfig c;
    c.kind = CacheKind::Hac;
    c.sizeBytes = size;
    c.lineBytes = line;
    c.hacSubarrayBytes = subarray;
    c.label = "hac32";
    return c;
}

CacheConfig
CacheConfig::xorDm(std::uint64_t size, std::uint32_t line)
{
    CacheConfig c;
    c.kind = CacheKind::XorDm;
    c.sizeBytes = size;
    c.lineBytes = line;
    c.label = "xor-dm";
    return c;
}

CacheConfig
CacheConfig::partialMatch(std::uint64_t size, std::uint32_t ways,
                          unsigned partial_bits, std::uint32_t line)
{
    CacheConfig c;
    c.kind = CacheKind::PartialMatch;
    c.sizeBytes = size;
    c.lineBytes = line;
    c.ways = ways;
    c.partialBits = partial_bits;
    c.label = strprintf("pad%u-%uway", partial_bits, ways);
    return c;
}

// ---------------------------------------------------------------------
// Hierarchy specs

bool
operator==(const HierarchySpec &a, const HierarchySpec &b)
{
    return a.l1 == b.l1 &&
           a.params.l1HitLatency == b.params.l1HitLatency &&
           a.params.l2SizeBytes == b.params.l2SizeBytes &&
           a.params.l2LineBytes == b.params.l2LineBytes &&
           a.params.l2Ways == b.params.l2Ways &&
           a.params.l2HitLatency == b.params.l2HitLatency &&
           a.params.memLatency == b.params.memLatency;
}

HierarchySpec
parseHierarchySpec(const std::string &spec)
{
    const std::vector<std::string> stages = split(spec, '/');
    if (stages.empty())
        throw CacheSpecError("empty hierarchy spec");
    HierarchySpec h;
    h.l1 = parseCacheSpec(stages.front());
    for (std::size_t i = 1; i < stages.size(); ++i) {
        const std::string &s = stages[i];
        if (s.rfind("l2:", 0) == 0) {
            std::vector<std::string> fields = split(s.substr(3), ',');
            if (fields.empty())
                throw CacheSpecError("l2 stage needs a size: '" + s +
                                     "'");
            h.params.l2SizeBytes = parseSize(fields.front(), "l2 size");
            fields.erase(fields.begin());
            SpecParams p("l2", std::move(fields));
            h.params.l2Ways = static_cast<std::uint32_t>(
                p.suffixed('w', h.params.l2Ways));
            h.params.l2LineBytes = static_cast<std::uint32_t>(
                p.suffixed('l', h.params.l2LineBytes));
            h.params.l2HitLatency = static_cast<Cycles>(
                p.suffixed('c', h.params.l2HitLatency));
            p.finish("Nw, Nl, Nc");
        } else if (s.rfind("mem:", 0) == 0) {
            std::string lat = s.substr(4);
            if (!lat.empty() && lat.back() == 'c')
                lat.pop_back();
            h.params.memLatency = static_cast<Cycles>(
                parseCount(lat, "memory latency"));
        } else {
            throw CacheSpecError(
                "unknown hierarchy stage '" + s +
                "'; expected l2:<size>,<N>w,<B>l,<C>c or mem:<C>c");
        }
    }
    return h;
}

std::string
printHierarchySpec(const HierarchySpec &spec)
{
    const HierarchyParams defaults;
    std::string out = printCacheSpec(spec.l1);
    const HierarchyParams &p = spec.params;
    if (p.l2SizeBytes != defaults.l2SizeBytes ||
        p.l2Ways != defaults.l2Ways ||
        p.l2LineBytes != defaults.l2LineBytes ||
        p.l2HitLatency != defaults.l2HitLatency) {
        out += "/l2:" + sizeToken(p.l2SizeBytes) + "," +
               std::to_string(p.l2Ways) + "w," +
               std::to_string(p.l2LineBytes) + "l," +
               std::to_string(p.l2HitLatency) + "c";
    }
    if (p.memLatency != defaults.memLatency)
        out += "/mem:" + std::to_string(p.memLatency) + "c";
    return out;
}

} // namespace bsim

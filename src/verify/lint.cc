#include "verify/lint.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <set>
#include <tuple>

#include "analysis/builder.hh"
#include "binfmt/addr_map.hh"
#include "binfmt/ehframe.hh"
#include "isa/bytes.hh"
#include "isa/reg_usage.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"

namespace icp
{

namespace
{

const Timer lint_timer = Metrics::global().timer("lint");
const Timer lint_chains_timer = Metrics::global().timer("lint.chains");
const Timer lint_clones_timer = Metrics::global().timer("lint.clones");
const Timer lint_ptrs_timer = Metrics::global().timer("lint.ptrs");
const Timer lint_maps_timer = Metrics::global().timer("lint.maps");

std::string
hex(Addr a)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(a));
    return buf;
}

/** The canonical finding order (LintReport::findings). */
bool
findingBefore(const Diagnostic &a, const Diagnostic &b)
{
    return std::tie(a.origAddr, a.newAddr, a.rule, a.severity,
                    a.function, a.message, a.funcEntry) <
           std::tie(b.origAddr, b.newAddr, b.rule, b.severity,
                    b.function, b.message, b.funcEntry);
}

/** True when @p map's relocated targets strictly ascend. */
bool
targetsAscend(const AddrPairs &map)
{
    const ScopedTimer timer(lint_maps_timer);
    return std::adjacent_find(
               map.begin(), map.end(),
               [](const std::pair<Addr, Addr> &a,
                  const std::pair<Addr, Addr> &b) {
                   return a.second >= b.second;
               }) == map.end();
}

/**
 * Every relocated target of the block and instruction maps, sorted
 * and deduplicated: the valid landing points of a trampoline chain.
 * Both maps' targets normally ascend with the original address (the
 * engine lays functions out in address order), so two sorted runs
 * merge; any other order falls back to a sort.
 */
std::vector<Addr>
relocatedTargets(const RewriteManifest &m)
{
    const ScopedTimer timer(lint_maps_timer);
    std::vector<Addr> out;
    out.reserve(m.blockMap.size() + m.insnMap.size());
    for (const auto &kv : m.blockMap)
        out.push_back(kv.second);
    const auto mid = static_cast<std::ptrdiff_t>(out.size());
    for (const auto &kv : m.insnMap)
        out.push_back(kv.second);
    if (std::is_sorted(out.begin(), out.begin() + mid) &&
        std::is_sorted(out.begin() + mid, out.end()))
        std::inplace_merge(out.begin(), out.begin() + mid, out.end());
    else
        std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

/**
 * The rule checker. Walks the rewritten image against the manifest;
 * each check() method appends at most a small number of findings so
 * a single planted defect yields a focused report instead of a
 * cascade.
 */
class Checker
{
  public:
    Checker(const BinaryImage &orig, const BinaryImage &rew,
            const RewriteManifest &m, const LintOptions &opts)
        : orig_(orig),
          rew_(rew),
          m_(m),
          opts_(opts),
          arch_(rew.archInfo()),
          instr_(rew.findSection(SectionKind::instr)),
          order_(opts.mapOrder
                     ? *opts.mapOrder
                     : MapOrder{targetsAscend(m.blockMap),
                                targetsAscend(m.insnMap)})
    {
    }

    std::vector<Diagnostic>
    run()
    {
        checkTrampolines();
        checkScratchRegs();
        checkTocPreserved();
        checkClones();
        checkOverlaps();
        checkAddrMaps();
        checkEhFrames();
        checkDataDeps();
        checkFuncPtrs();
        return std::move(findings_);
    }

  private:
    // --- reporting -------------------------------------------------------

    /** Build one finding (const: safe from parallel workers). */
    Diagnostic
    diag(const char *rule, Severity sev, Addr orig_addr,
         Addr new_addr, Addr func_entry, std::string msg) const
    {
        Diagnostic d;
        d.rule = rule;
        d.severity = sev;
        d.origAddr = orig_addr;
        d.newAddr = new_addr;
        if (const Symbol *s = orig_.functionContaining(func_entry))
            d.function = s->name;
        d.message = std::move(msg);
        d.funcEntry = func_entry;
        return d;
    }

    void
    report(const char *rule, Severity sev, Addr orig_addr,
           Addr new_addr, Addr func_entry, std::string msg)
    {
        findings_.push_back(diag(rule, sev, orig_addr, new_addr,
                                 func_entry, std::move(msg)));
    }

    // --- incremental-lint filters ----------------------------------------

    bool
    ruleEnabled(const char *rule) const
    {
        return opts_.onlyRules.empty() ||
               opts_.onlyRules.count(rule) > 0;
    }

    bool
    anyRuleEnabled(std::initializer_list<const char *> rules) const
    {
        for (const char *r : rules) {
            if (ruleEnabled(r))
                return true;
        }
        return false;
    }

    bool
    siteEnabled(Addr func_entry) const
    {
        return !opts_.onlyFunctions ||
               opts_.onlyFunctions->count(func_entry) > 0;
    }

    /**
     * Call @p fn with every element of @p by_entry (a map or set
     * keyed by function entry) whose entry the site filter keeps, in
     * entry order: a lookup per selected function when the lint is
     * scoped, not a walk of the whole container.
     */
    template <class Container, class Fn>
    void
    forEachSelected(const Container &by_entry, Fn &&fn) const
    {
        if (!opts_.onlyFunctions) {
            for (const auto &element : by_entry)
                fn(element);
            return;
        }
        for (Addr entry : *opts_.onlyFunctions) {
            const auto it = by_entry.find(entry);
            if (it != by_entry.end())
                fn(*it);
        }
    }

    // --- shared helpers --------------------------------------------------

    /**
     * Whether @p a is a relocated block or instruction start. With
     * ascending targets (as the engine lays them out) that is a
     * binary search on the maps themselves; otherwise on
     * boundaries_, which a chain walk builds first.
     */
    bool
    isBoundary(Addr a) const
    {
        if (!order_.bothAscend())
            return std::binary_search(boundaries_.begin(),
                                      boundaries_.end(), a);
        const auto hasTarget = [a](const AddrPairs &map) {
            return std::binary_search(
                map.begin(), map.end(), std::pair<Addr, Addr>{0, a},
                [](const std::pair<Addr, Addr> &x,
                   const std::pair<Addr, Addr> &y) {
                    return x.second < y.second;
                });
        };
        return hasTarget(m_.blockMap) || hasTarget(m_.insnMap);
    }

    bool
    decodeAt(Addr a, Instruction &in) const
    {
        const Section *sec = rew_.sectionAt(a);
        if (!sec)
            return false;
        std::array<std::uint8_t, 16> buf{};
        const std::size_t avail = static_cast<std::size_t>(
            std::min<std::uint64_t>({arch_.maxInstrLen, buf.size(),
                                     sec->end() - a}));
        if (!rew_.readBytes(a, std::span(buf.data(), avail)))
            return false;
        return arch_.codec->decode(buf.data(), avail, a, in) &&
               in.valid();
    }

    const Function *
    functionAt(Addr entry)
    {
        if (opts_.originalCfg)
            return opts_.originalCfg->functionAt(entry);
        if (!cfgBuilt_) {
            cfg_ = buildCfg(orig_);
            cfgBuilt_ = true;
            rebuiltOriginalCfg_ = true;
        }
        return cfg_.functionAt(entry);
    }

    // --- R1/R2/R3/R12: trampoline chain walking --------------------------

    /**
     * Symbolically execute one trampoline chain: follow direct
     * branches, evaluate the long-form address-materialization
     * sequences (addis/addi/mtspr-tar/bctar, adrp/add/br, lea/jmp),
     * and require the chain to terminate on a relocated instruction
     * boundary equal to the manifest target. Emits at most one
     * finding per trampoline, classified range -> chain -> target.
     */
    void
    walkChain(const TrampolinePatch &p,
              std::vector<Diagnostic> &out) const
    {
        // Shadows the serial member: chain walking runs on pool
        // workers, so findings collect into a per-site vector.
        auto report = [&](const char *rule, Severity sev,
                          Addr orig_addr, Addr new_addr,
                          Addr func_entry, std::string msg) {
            out.push_back(diag(rule, sev, orig_addr, new_addr,
                               func_entry, std::move(msg)));
        };
        Addr addr = p.site;
        std::set<Addr> visited;
        std::map<Reg, Addr> vals;
        bool tar_known = false;
        Addr tar = 0;
        unsigned steps = 0;

        while (true) {
            if (instr_ && instr_->contains(addr)) {
                if (!isBoundary(addr)) {
                    report("tramp-target", Severity::error, p.site,
                           addr, p.funcEntry,
                           "chain lands inside relocated code at " +
                               hex(addr) +
                               ", not on an instruction boundary");
                } else if (addr != p.target) {
                    report("tramp-target", Severity::error, p.site,
                           addr, p.funcEntry,
                           "chain reaches " + hex(addr) +
                               " but the manifest target is " +
                               hex(p.target));
                }
                return;
            }
            if (++steps > max_chain_steps) {
                report("tramp-chain", Severity::error, p.site, addr,
                       p.funcEntry,
                       "chain executes more than 64 instructions "
                       "without reaching relocated code");
                return;
            }
            const Section *sec = rew_.sectionAt(addr);
            if (!sec) {
                report("tramp-target", Severity::error, p.site, addr,
                       p.funcEntry,
                       "chain escapes to unmapped address " +
                           hex(addr));
                return;
            }
            if (!sec->executable) {
                report("tramp-target", Severity::error, p.site, addr,
                       p.funcEntry,
                       "chain enters non-executable section " +
                           sec->name);
                return;
            }
            Instruction in;
            if (!decodeAt(addr, in)) {
                report("tramp-target", Severity::error, p.site, addr,
                       p.funcEntry,
                       "undecodable instruction at " + hex(addr));
                return;
            }

            switch (in.op) {
              case Opcode::Jmp: {
                const auto delta =
                    static_cast<std::int64_t>(in.target) -
                    static_cast<std::int64_t>(addr);
                std::int64_t limit = arch_.directJmpRange;
                if (!arch_.fixedLength &&
                    in.length == arch_.shortJmpLen)
                    limit = arch_.shortJmpRange;
                if (delta < -limit || delta > limit) {
                    report("tramp-range", Severity::error, p.site,
                           addr, p.funcEntry,
                           "branch at " + hex(addr) + " spans " +
                               std::to_string(delta) +
                               " bytes, beyond the ISA limit of +/-" +
                               std::to_string(limit));
                    return;
                }
                if (!visited.insert(addr).second) {
                    report("tramp-chain", Severity::error, p.site,
                           addr, p.funcEntry,
                           "chain loops back through " + hex(addr));
                    return;
                }
                addr = in.target;
                continue;
              }
              case Opcode::Trap:
                if (p.kind == TrampolineKind::trap) {
                    report("tramp-trap", Severity::warning, p.site,
                           p.target, p.funcEntry,
                           "trap fallback at " + hex(p.site) +
                               "; control reaches " + hex(p.target) +
                               " only via runtime redirection");
                } else {
                    report("tramp-target", Severity::error, p.site,
                           addr, p.funcEntry,
                           "non-trap trampoline runs into a trap "
                           "instruction at " +
                               hex(addr));
                }
                return;
              case Opcode::Store:
                break; // scratch spill to the stack (ppc spill form)
              case Opcode::Load:
                vals.erase(in.rd); // spill restore
                break;
              case Opcode::AddisToc:
                vals[in.rd] = static_cast<Addr>(
                    static_cast<std::int64_t>(rew_.tocBase) +
                    (in.imm << 16));
                break;
              case Opcode::AddImm: {
                auto it = vals.find(in.rd);
                if (it == vals.end()) {
                    reportUnresolved(p, addr, in, out);
                    return;
                }
                it->second = static_cast<Addr>(
                    static_cast<std::int64_t>(it->second) + in.imm);
                break;
              }
              case Opcode::Lea:
              case Opcode::AdrPage:
                vals[in.rd] = in.target;
                break;
              case Opcode::MovImm:
                if (!in.movKeep) {
                    vals[in.rd] = static_cast<Addr>(
                        static_cast<std::uint64_t>(in.imm)
                        << in.movShift);
                } else {
                    auto it = vals.find(in.rd);
                    if (it == vals.end()) {
                        reportUnresolved(p, addr, in, out);
                        return;
                    }
                    it->second |=
                        (static_cast<std::uint64_t>(in.imm) & 0xffff)
                        << in.movShift;
                }
                break;
              case Opcode::MovHi: {
                auto it = vals.find(in.rd);
                if (it == vals.end()) {
                    reportUnresolved(p, addr, in, out);
                    return;
                }
                it->second =
                    (it->second & 0xffff) |
                    ((static_cast<std::uint64_t>(in.imm) & 0xffff)
                     << 16);
                break;
              }
              case Opcode::MoveToTar: {
                auto it = vals.find(in.rs1);
                if (it == vals.end()) {
                    reportUnresolved(p, addr, in, out);
                    return;
                }
                tar = it->second;
                tar_known = true;
                break;
              }
              case Opcode::JmpTar:
                if (!tar_known) {
                    reportUnresolved(p, addr, in, out);
                    return;
                }
                if (!visited.insert(addr).second) {
                    report("tramp-chain", Severity::error, p.site,
                           addr, p.funcEntry,
                           "chain loops back through " + hex(addr));
                    return;
                }
                addr = tar;
                continue;
              case Opcode::JmpInd: {
                auto it = vals.find(in.rs1);
                if (it == vals.end()) {
                    reportUnresolved(p, addr, in, out);
                    return;
                }
                if (!visited.insert(addr).second) {
                    report("tramp-chain", Severity::error, p.site,
                           addr, p.funcEntry,
                           "chain loops back through " + hex(addr));
                    return;
                }
                addr = it->second;
                continue;
              }
              default:
                report("tramp-target", Severity::error, p.site, addr,
                       p.funcEntry,
                       "unexpected instruction '" + in.toString() +
                           "' in trampoline chain");
                return;
            }
            addr += in.length;
        }
    }

    void
    reportUnresolved(const TrampolinePatch &p, Addr addr,
                     const Instruction &in,
                     std::vector<Diagnostic> &out) const
    {
        out.push_back(diag(
            "tramp-target", Severity::error, p.site, addr,
            p.funcEntry,
            "cannot resolve the branch target: '" + in.toString() +
                "' uses a register with no known value"));
    }

    void
    checkTrampolines()
    {
        if (!anyRuleEnabled({"tramp-target", "tramp-range",
                             "tramp-chain", "tramp-trap"}))
            return;
        const ScopedTimer timer(lint_chains_timer);
        std::vector<const TrampolinePatch *> sites;
        for (const TrampolinePatch &p : m_.trampolines) {
            if (siteEnabled(p.funcEntry))
                sites.push_back(&p);
        }
        checkedTrampolines_ = sites.size();
        if (!sites.empty() && !order_.bothAscend())
            boundaries_ = relocatedTargets(m_);
        // Per-site chain walks are independent and read-only; the
        // index-slot results keep finding order deterministic for
        // every thread count.
        auto results =
            ThreadPool::shared().parallelMap<std::vector<Diagnostic>>(
                sites.size(), effectiveThreads(opts_.threads),
                [&](std::size_t i) {
                    std::vector<Diagnostic> out;
                    walkChain(*sites[i], out);
                    return out;
                });
        for (auto &site_findings : results) {
            for (auto &d : site_findings)
                findings_.push_back(std::move(d));
        }
    }

    // --- R4: scratch-register liveness -----------------------------------

    void
    checkScratchRegs()
    {
        if (!ruleEnabled("tramp-scratch-live"))
            return;
        for (const TrampolinePatch &p : m_.trampolines) {
            if (!siteEnabled(p.funcEntry))
                continue;
            if (p.kind != TrampolineKind::longForm &&
                p.kind != TrampolineKind::multiHop)
                continue;
            if (p.scratchReg == Reg::none ||
                static_cast<unsigned>(p.scratchReg) >= num_gp_regs)
                continue;
            const Function *fn = functionAt(p.funcEntry);
            if (!fn)
                continue;
            if (fn->liveAtBlockStart(p.site).contains(p.scratchReg))
                report("tramp-scratch-live", Severity::error, p.site,
                       p.target, p.funcEntry,
                       std::string("long form clobbers ") +
                           regName(p.scratchReg) +
                           ", which is live at " + hex(p.site));
        }
    }

    // --- R5: ppc64le TOC preservation ------------------------------------

    void
    checkTocPreserved()
    {
        if (!arch_.hasToc || !ruleEnabled("toc-preserved"))
            return;
        for (const TrampolinePatch &p : m_.trampolines) {
            if (!siteEnabled(p.funcEntry))
                continue;
            bool flagged = false;
            for (const auto &w : p.writes) {
                for (Addr a = w.first;
                     !flagged && a < w.first + w.second;) {
                    Instruction in;
                    if (!decodeAt(a, in))
                        break; // the chain walker reports this
                    if (regsWritten(in, arch_).contains(Reg::toc)) {
                        report("toc-preserved", Severity::error,
                               p.site, a, p.funcEntry,
                               "trampoline instruction '" +
                                   in.toString() +
                                   "' clobbers the TOC register");
                        flagged = true;
                    }
                    a += in.length;
                }
                if (flagged)
                    break;
            }
        }
    }

    // --- R6/R7: cloned jump tables ---------------------------------------

    void
    checkClones()
    {
        if (!anyRuleEnabled({"jt-clone-bounds", "jt-clone-target"}))
            return;
        const ScopedTimer timer(lint_clones_timer);
        const Section *ro = rew_.findSection(SectionKind::newRodata);
        std::vector<const JumpTableClonePatch *> clones;
        for (const JumpTableClonePatch &p : m_.clones) {
            if (siteEnabled(p.funcEntry))
                clones.push_back(&p);
        }

        struct CloneOut
        {
            std::vector<Diagnostic> findings;
            std::uint64_t checked = 0;
        };
        auto results = ThreadPool::shared().parallelMap<CloneOut>(
            clones.size(), effectiveThreads(opts_.threads),
            [&](std::size_t i) {
                const JumpTableClonePatch &p = *clones[i];
                CloneOut out;
                const Addr lo = p.cloneAddr;
                const Addr hi = p.cloneAddr +
                                static_cast<Addr>(p.entryCount) *
                                    p.entrySize;
                if (!ro || lo < ro->addr || hi > ro->end()) {
                    out.findings.push_back(diag(
                        "jt-clone-bounds", Severity::error,
                        p.jumpAddr, lo, p.funcEntry,
                        "clone [" + hex(lo) + ", " + hex(hi) +
                            ") escapes .newrodata" +
                            (ro ? " [" + hex(ro->addr) + ", " +
                                      hex(ro->end()) + ")"
                                : " (section missing)")));
                    return out;
                }
                checkCloneEntries(p, out.findings, out.checked);
                return out;
            });
        for (auto &r : results) {
            checkedCloneEntries_ += r.checked;
            for (auto &d : r.findings)
                findings_.push_back(std::move(d));
        }
    }

    /**
     * Re-derive each entry's branch destination exactly as the
     * rewritten dispatch would: absolute entries hold the target;
     * relative entries are sign-extended, scaled by the table's
     * shift, and added to the relocated base anchor (the clone
     * itself for table-relative bases, the base block's relocated
     * address otherwise). Entries whose original target was not
     * relocated are dispatch-unreachable garbage and stay zero.
     */
    void
    checkCloneEntries(const JumpTableClonePatch &p,
                      std::vector<Diagnostic> &out,
                      std::uint64_t &checked) const
    {
        auto report = [&](const char *rule, Severity sev,
                          Addr orig_addr, Addr new_addr,
                          Addr func_entry, std::string msg) {
            out.push_back(diag(rule, sev, orig_addr, new_addr,
                               func_entry, std::move(msg)));
        };
        Addr base_new = 0;
        if (p.origBase) {
            if (*p.origBase == p.origTableAddr) {
                base_new = p.cloneAddr;
            } else {
                const auto bb = flatLookup(m_.blockMap, *p.origBase);
                if (!bb) {
                    report("jt-clone-target", Severity::error,
                           p.jumpAddr, p.cloneAddr, p.funcEntry,
                           "table base anchor " + hex(*p.origBase) +
                               " was not relocated");
                    return;
                }
                base_new = *bb;
            }
        }
        const unsigned n = std::min<unsigned>(
            p.entryCount,
            static_cast<unsigned>(p.origTargets.size()));
        for (unsigned i = 0; i < n; ++i) {
            const auto ti = flatLookup(m_.blockMap, p.origTargets[i]);
            if (!ti)
                continue;
            const Addr at = p.cloneAddr +
                            static_cast<Addr>(i) * p.entrySize;
            const auto value = rew_.readValue(at, p.entrySize);
            ++checked;
            if (!value) {
                report("jt-clone-target", Severity::error,
                       p.origTargets[i], at, p.funcEntry,
                       "clone entry " + std::to_string(i) +
                           " is unreadable");
                return;
            }
            Addr actual;
            if (!p.origBase)
                actual = *value;
            else
                actual = static_cast<Addr>(
                    static_cast<std::int64_t>(base_new) +
                    (signExtend(*value, p.entrySize * 8)
                     << p.shift));
            if (actual != *ti) {
                report("jt-clone-target", Severity::error,
                       p.origTargets[i], at, p.funcEntry,
                       "clone entry " + std::to_string(i) +
                           " decodes to " + hex(actual) +
                           ", expected relocated block " +
                           hex(*ti));
                return; // one finding per clone
            }
        }
    }

    // --- R8: patch overlap and placement ---------------------------------

    void
    checkOverlaps()
    {
        if (!ruleEnabled("patch-overlap"))
            return;
        struct Ext
        {
            Addr lo, hi, site;
        };
        std::vector<Ext> exts;
        for (const TrampolinePatch &p : m_.trampolines)
            for (const auto &w : p.writes)
                exts.push_back({w.first, w.first + w.second, p.site});

        for (const Ext &e : exts) {
            const Section *sec = rew_.sectionAt(e.lo);
            if (!sec || !sec->executable || e.hi > sec->end()) {
                report("patch-overlap", Severity::error, e.site, e.lo,
                       e.site,
                       "patch bytes [" + hex(e.lo) + ", " +
                           hex(e.hi) +
                           ") fall outside executable sections");
                continue;
            }
            if (sec->kind == SectionKind::instr ||
                sec->kind == SectionKind::newRodata)
                report("patch-overlap", Severity::error, e.site, e.lo,
                       e.site,
                       "patch bytes land in generated section " +
                           sec->name);
            for (const auto &pr : m_.protectedRanges)
                if (e.lo < pr.second && pr.first < e.hi)
                    report("patch-overlap", Severity::error, e.site,
                           e.lo, e.site,
                           "patch bytes [" + hex(e.lo) + ", " +
                               hex(e.hi) +
                               ") overwrite protected table data [" +
                               hex(pr.first) + ", " +
                               hex(pr.second) + ")");
        }

        const auto before = [](const Ext &a, const Ext &b) {
            return a.lo < b.lo || (a.lo == b.lo && a.hi < b.hi);
        };
        if (!std::is_sorted(exts.begin(), exts.end(), before))
            std::stable_sort(exts.begin(), exts.end(), before);
        for (std::size_t i = 1; i < exts.size(); ++i)
            if (exts[i].lo < exts[i - 1].hi)
                report("patch-overlap", Severity::error,
                       exts[i].site, exts[i].lo, exts[i].site,
                       "patch bytes at " + hex(exts[i].lo) +
                           " overlap the patch at " +
                           hex(exts[i - 1].lo) + " (site " +
                           hex(exts[i - 1].site) + ")");
    }

    // --- R9: address-map consistency -------------------------------------

    void
    checkAddrMaps()
    {
        if (!ruleEnabled("addr-map-round-trip"))
            return;
        const ScopedTimer timer(lint_maps_timer);
        checkMapInto("block map", m_.blockMap,
                     order_.blockTargetsAscend);
        checkMapInto("instruction map", m_.insnMap,
                     order_.insnTargetsAscend);

        // .ra_map must round-trip to the manifest's pairs; a map
        // that does not parse stores none of them.
        const auto storedPairs = [&](SectionKind kind) {
            const Section *s = rew_.findSection(kind);
            std::optional<AddrPairMap> map;
            if (s)
                map = AddrPairMap::parse(s->bytes);
            return map ? map->pairs() : AddrPairs{};
        };
        const AddrPairs stored = storedPairs(SectionKind::raMap);
        std::vector<std::pair<Addr, Addr>> expect =
            AddrPairMap(m_.raPairs).pairs();
        checkedRaPairs_ = expect.size();
        comparePairs("'.ra_map'", stored, expect);

        // .trap_map must hold exactly the trap trampolines.
        const AddrPairs traps = storedPairs(SectionKind::trapMap);
        std::vector<std::pair<Addr, Addr>> expect_traps;
        for (const TrampolinePatch &p : m_.trampolines)
            if (p.kind == TrampolineKind::trap)
                expect_traps.emplace_back(p.site, p.target);
        std::sort(expect_traps.begin(), expect_traps.end());
        comparePairs("'.trap_map'", traps, expect_traps);
    }

    /**
     * Require every target of @p map inside .instr and no two keys
     * on one target. Reports only the first violation in original
     * address order.
     */
    void
    checkMapInto(const char *what, const AddrPairs &map, bool ascend)
    {
        // Ascending targets put the ones below .instr first and the
        // ones past it last: two binary searches find the first.
        std::size_t outside = map.size();
        const auto byTarget = [](const std::pair<Addr, Addr> &p,
                                 Addr a) { return p.second < a; };
        if (!instr_) {
            outside = 0;
        } else if (ascend) {
            if (!map.empty() && !instr_->contains(map.front().second))
                outside = 0;
            else
                outside = static_cast<std::size_t>(
                    std::lower_bound(map.begin(), map.end(),
                                     instr_->end(), byTarget) -
                    map.begin());
        } else {
            for (std::size_t i = 0; i < map.size(); ++i) {
                if (!instr_->contains(map[i].second)) {
                    outside = i;
                    break;
                }
            }
        }

        // Strictly ascending targets are injective. Otherwise sort
        // (target, index): the earliest repeat is the smallest later
        // index of two adjacent pairs on one target, and the pair
        // before it holds that target's first key.
        std::size_t repeat = map.size();
        std::size_t first = 0;
        if (!ascend) {
            std::vector<std::pair<Addr, std::size_t>> by_target;
            by_target.reserve(map.size());
            for (std::size_t i = 0; i < map.size(); ++i)
                by_target.emplace_back(map[i].second, i);
            std::sort(by_target.begin(), by_target.end());
            for (std::size_t k = 1; k < by_target.size(); ++k) {
                if (by_target[k].first == by_target[k - 1].first &&
                    by_target[k].second < repeat) {
                    repeat = by_target[k].second;
                    first = by_target[k - 1].second;
                }
            }
        }

        if (outside < repeat) {
            const auto &[o, n] = map[outside];
            report("addr-map-round-trip", Severity::error, o, n, o,
                   std::string(what) + " sends " + hex(o) + " to " +
                       hex(n) + ", outside .instr");
        } else if (repeat < map.size()) {
            const auto &[o, n] = map[repeat];
            report("addr-map-round-trip", Severity::error, o, n, o,
                   std::string(what) + " is not injective: " +
                       hex(map[first].first) + " and " + hex(o) +
                       " both map to " + hex(n));
        }
    }

    void
    comparePairs(const char *what,
                 const std::vector<std::pair<Addr, Addr>> &stored,
                 const std::vector<std::pair<Addr, Addr>> &expect)
    {
        if (stored == expect)
            return;
        Addr where = invalid_addr;
        const std::size_t n = std::min(stored.size(), expect.size());
        for (std::size_t i = 0; i < n; ++i) {
            if (stored[i] != expect[i]) {
                where = stored[i].first;
                break;
            }
        }
        report("addr-map-round-trip", Severity::error, invalid_addr,
               where, invalid_addr,
               std::string(what) + " does not round-trip: section "
                   "stores " + std::to_string(stored.size()) +
                   " pairs, manifest has " +
                   std::to_string(expect.size()) +
                   (where == invalid_addr
                        ? std::string()
                        : ", first mismatch at key " + hex(where)));
    }

    // --- R10: unwind coverage --------------------------------------------

    void
    checkEhFrames()
    {
        if (m_.instrumented.empty() ||
            !ruleEnabled("eh-frame-cover"))
            return;
        std::vector<Addr> entries;
        forEachSelected(m_.instrumented,
                        [&](Addr entry) { entries.push_back(entry); });
        if (entries.empty())
            return;
        const auto covering = [&](const BinaryImage &img) {
            const Section *s = img.findSection(SectionKind::ehFrame);
            return coveringFdes(s ? s->bytes : std::vector<std::uint8_t>{},
                                entries);
        };
        const auto was = covering(orig_);
        const auto now = covering(rew_);
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const Addr entry = entries[i];
            if (!was[i])
                continue;
            ++checkedFdes_;
            if (now[i] != was[i])
                report("eh-frame-cover", Severity::error, entry,
                       invalid_addr, entry,
                       "FDE [" + hex(was[i]->first) + ", " +
                           hex(was[i]->second) +
                           ") no longer covers the instrumented "
                           "function");
        }
    }

    // --- R13/R14/R15: data read-set audit ---------------------------------

    /**
     * Audit each function's recorded data read-set against a fresh
     * recomputation from the original CFG and image: ranges the
     * slices read must be recorded (datadep-missing), recorded
     * hashes must match the image (datadep-stale), and the recorded
     * total must not exceed the actual reads beyond a threshold
     * (datadep-overbroad) — an overbroad set is sound but erodes the
     * precision of data-edit invalidation. One finding per rule
     * per function, so a planted defect yields a focused report.
     */
    void
    checkDataDeps()
    {
        if (!anyRuleEnabled({"datadep-missing", "datadep-stale",
                             "datadep-overbroad"}))
            return;
        forEachSelected(m_.dataDeps, [&](const auto &element) {
            const auto &[entry, recorded] = element;
            const Function *fn = functionAt(entry);
            if (!fn)
                return;
            ++checkedDataDeps_;

            const DataDeps expected = computeDataDeps(*fn, orig_);
            if (ruleEnabled("datadep-missing")) {
                for (const DepRange &r : expected.ranges()) {
                    if (recorded.covers(r.lo, r.hi))
                        continue;
                    report("datadep-missing", Severity::error, r.lo,
                           invalid_addr, entry,
                           "analysis reads [" + hex(r.lo) + ", " +
                               hex(r.hi) +
                               ") but the recorded read-set does "
                               "not cover it");
                    break;
                }
            }
            if (ruleEnabled("datadep-stale")) {
                for (const DepRange &r : recorded.ranges()) {
                    const std::uint64_t now =
                        hashImageRange(orig_, r.lo, r.hi);
                    if (now == r.hash)
                        continue;
                    report("datadep-stale", Severity::error, r.lo,
                           invalid_addr, entry,
                           "recorded hash of [" + hex(r.lo) + ", " +
                               hex(r.hi) +
                               ") disagrees with the image");
                    break;
                }
            }
            if (ruleEnabled("datadep-overbroad")) {
                const std::uint64_t want = expected.totalBytes();
                const std::uint64_t have = recorded.totalBytes();
                const std::uint64_t slack =
                    std::max<std::uint64_t>(64, want);
                if (have > want + slack) {
                    report("datadep-overbroad", Severity::warning,
                           entry, invalid_addr, entry,
                           "recorded read-set spans " +
                               std::to_string(have) +
                               " bytes; the analysis slices read " +
                               std::to_string(want));
                }
            }
        });
    }

    // --- R11: function-pointer cells under the loader ---------------------

    /**
     * Each data cell must hold its relocated target once the loader
     * has applied relocations at the default slide. The loaded value
     * is computed from the section bytes and the relocation records
     * (BinaryImage::loadedValue); nothing is mapped.
     */
    void
    checkFuncPtrs()
    {
        if (!ruleEnabled("func-ptr-target"))
            return;
        const auto wanted = [&](const FuncPtrPatch &p) {
            return p.kind == FuncPtrPatch::Kind::dataCell &&
                   siteEnabled(p.funcEntry);
        };
        if (std::none_of(m_.funcPtrs.begin(), m_.funcPtrs.end(), wanted))
            return;
        const ScopedTimer timer(lint_ptrs_timer);
        // A lint scoped to a few functions indexes only the
        // relocations its cells can load.
        std::vector<Addr> cells;
        if (opts_.onlyFunctions) {
            for (const FuncPtrPatch &p : m_.funcPtrs) {
                if (wanted(p))
                    cells.push_back(p.site);
            }
            std::sort(cells.begin(), cells.end());
        }
        const RelocIndex index = opts_.onlyFunctions
                                     ? RelocIndex(rew_.relocs, cells)
                                     : RelocIndex(rew_.relocs);
        const std::int64_t slide = rew_.pie ? default_pie_slide : 0;
        for (const FuncPtrPatch &p : m_.funcPtrs) {
            if (!wanted(p))
                continue;
            ++checkedFuncPtrs_;
            const auto value = rew_.loadedValue(p.site, index, slide);
            if (!value) {
                report("func-ptr-target", Severity::error, p.site,
                       invalid_addr, p.funcEntry,
                       "pointer cell at " + hex(p.site) +
                           " is unmapped after loading");
                continue;
            }
            const Addr expect = p.newValue + static_cast<Addr>(slide);
            if (*value != expect) {
                report("func-ptr-target", Severity::error, p.site,
                       p.newValue, p.funcEntry,
                       "loaded cell holds " + hex(*value) +
                           ", expected " + hex(expect) +
                           " (relocated target " + hex(p.newValue) +
                           ")");
            }
        }
    }

  public:
    const MapOrder &mapOrder() const { return order_; }

    std::uint64_t checkedTrampolines_ = 0;
    std::uint64_t checkedCloneEntries_ = 0;
    std::uint64_t checkedFuncPtrs_ = 0;
    std::uint64_t checkedRaPairs_ = 0;
    std::uint64_t checkedFdes_ = 0;
    std::uint64_t checkedDataDeps_ = 0;
    bool rebuiltOriginalCfg_ = false;

  private:
    static constexpr unsigned max_chain_steps = 64;

    const BinaryImage &orig_;
    const BinaryImage &rew_;
    const RewriteManifest &m_;
    const LintOptions &opts_;
    const ArchInfo &arch_;
    const Section *instr_;

    /** Whether the block and instruction maps' targets ascend. */
    const MapOrder order_;

    /**
     * Valid relocated landing points, sorted (relocatedTargets);
     * built only when a chain is walked over maps whose targets do
     * not ascend.
     */
    std::vector<Addr> boundaries_;
    std::vector<Diagnostic> findings_;

    bool cfgBuilt_ = false;
    CfgModule cfg_;
};

} // namespace

LintReport
lintRewrite(const BinaryImage &original, const RewriteResult &rw,
            const LintOptions &opts)
{
    const ScopedTimer timer(lint_timer);
    LintReport rep;
    if (!rw.ok) {
        Diagnostic d;
        d.rule = "lint-input";
        d.message = "rewrite failed: " + rw.failReason;
        rep.findings.push_back(std::move(d));
        return rep;
    }
    if (!rw.manifest.populated) {
        Diagnostic d;
        d.rule = "lint-manifest";
        d.message = "rewrite ran with RewriteOptions::lint off; no "
                    "manifest to verify against";
        rep.findings.push_back(std::move(d));
        return rep;
    }
    Checker checker(original, rw.image, rw.manifest, opts);
    rep.findings = checker.run();
    // Surface persistent-cache degradation alongside the soundness
    // findings: a dropped or rejected cache entry never affects the
    // output bytes (analysis simply re-runs), so these are warnings,
    // but CI's --fail-on=warning gate still notices a rotting
    // artifact.
    if (!rw.cacheLoad.clean() &&
        (opts.onlyRules.empty() ||
         opts.onlyRules.count("cache-file"))) {
        auto cache_diags =
            diagnosticsFromCacheIssues(rw.cacheLoad.issues);
        rep.findings.insert(rep.findings.end(),
                            cache_diags.begin(), cache_diags.end());
    }
    std::sort(rep.findings.begin(), rep.findings.end(), findingBefore);
    rep.checkedTrampolines = checker.checkedTrampolines_;
    rep.checkedCloneEntries = checker.checkedCloneEntries_;
    rep.checkedFuncPtrs = checker.checkedFuncPtrs_;
    rep.checkedRaPairs = checker.checkedRaPairs_;
    rep.checkedFdes = checker.checkedFdes_;
    rep.checkedDataDeps = checker.checkedDataDeps_;
    rep.rebuiltOriginalCfg = checker.rebuiltOriginalCfg_;
    rep.mapOrder = checker.mapOrder();
    return rep;
}

bool
isFunctionRule(const std::string &rule)
{
    static const std::set<std::string, std::less<>> rules = {
        "tramp-target",    "tramp-range",        "tramp-chain",
        "tramp-trap",      "tramp-scratch-live", "toc-preserved",
        "jt-clone-bounds", "jt-clone-target",    "eh-frame-cover",
        "func-ptr-target", "datadep-missing",    "datadep-stale",
        "datadep-overbroad",
    };
    return rules.count(rule) > 0;
}

LintReport
relint(const BinaryImage &original, const RewriteResult &rw,
       const LintReport &previous, const std::set<Addr> &changed,
       const LintOptions &opts)
{
    LintOptions scoped = opts;
    if (opts.onlyFunctions) {
        scoped.onlyFunctions.emplace();
        std::set_intersection(
            changed.begin(), changed.end(), opts.onlyFunctions->begin(),
            opts.onlyFunctions->end(),
            std::inserter(*scoped.onlyFunctions,
                          scoped.onlyFunctions->end()));
    } else {
        scoped.onlyFunctions = changed;
    }
    LintReport fresh = lintRewrite(original, rw, scoped);
    if (!rw.ok || !rw.manifest.populated)
        return fresh;

    // The image-global rules re-ran in full, and so did the
    // function-attributable ones for every re-checked function:
    // everything else of the previous report stands. Both lists are
    // in the canonical order, so one merge keeps it.
    std::vector<Diagnostic> carried;
    for (const Diagnostic &d : previous.findings) {
        if (isFunctionRule(d.rule) &&
            !scoped.onlyFunctions->count(d.funcEntry))
            carried.push_back(d);
    }
    std::vector<Diagnostic> merged;
    merged.reserve(carried.size() + fresh.findings.size());
    std::merge(carried.begin(), carried.end(), fresh.findings.begin(),
               fresh.findings.end(), std::back_inserter(merged),
               findingBefore);
    fresh.findings = std::move(merged);
    fresh.relintedFunctions = scoped.onlyFunctions->size();
    return fresh;
}

namespace
{

/**
 * Add to @p out every key whose records differ between @p a and
 * @p b, records grouped by @p key in their list order.
 */
template <class T, class Key>
void
diffRecords(const std::vector<T> &a, const std::vector<T> &b, Key key,
            std::set<Addr> &out)
{
    const auto grouped = [&](const std::vector<T> &v) {
        std::vector<const T *> p;
        p.reserve(v.size());
        for (const T &x : v)
            p.push_back(&x);
        std::stable_sort(p.begin(), p.end(),
                         [&](const T *x, const T *y) {
                             return key(*x) < key(*y);
                         });
        return p;
    };
    const std::vector<const T *> pa = grouped(a), pb = grouped(b);
    std::size_t i = 0, j = 0;
    while (i < pa.size() || j < pb.size()) {
        const Addr k = j == pb.size() || (i < pa.size() &&
                                          key(*pa[i]) <= key(*pb[j]))
                           ? key(*pa[i])
                           : key(*pb[j]);
        std::size_t i2 = i, j2 = j;
        while (i2 < pa.size() && key(*pa[i2]) == k)
            ++i2;
        while (j2 < pb.size() && key(*pb[j2]) == k)
            ++j2;
        if (!std::equal(pa.begin() + static_cast<std::ptrdiff_t>(i),
                        pa.begin() + static_cast<std::ptrdiff_t>(i2),
                        pb.begin() + static_cast<std::ptrdiff_t>(j),
                        pb.begin() + static_cast<std::ptrdiff_t>(j2),
                        [](const T *x, const T *y) { return *x == *y; }))
            out.insert(k);
        i = i2;
        j = j2;
    }
}

} // namespace

std::set<Addr>
changedFunctions(const RewriteManifest &before,
                 const RewriteManifest &after)
{
    std::set<Addr> out;
    diffRecords(before.trampolines, after.trampolines,
                [](const TrampolinePatch &p) { return p.funcEntry; }, out);
    diffRecords(before.clones, after.clones,
                [](const JumpTableClonePatch &p) { return p.funcEntry; },
                out);
    diffRecords(before.funcPtrs, after.funcPtrs,
                [](const FuncPtrPatch &p) { return p.funcEntry; }, out);
    diffRecords(before.funcSpans, after.funcSpans,
                [](const FuncSpan &s) { return s.entry; }, out);
    std::set_symmetric_difference(
        before.instrumented.begin(), before.instrumented.end(),
        after.instrumented.begin(), after.instrumented.end(),
        std::inserter(out, out.end()));
    for (const auto &[entry, deps] : before.dataDeps) {
        const auto it = after.dataDeps.find(entry);
        if (it == after.dataDeps.end() || !(it->second == deps))
            out.insert(entry);
    }
    for (const auto &[entry, deps] : after.dataDeps) {
        if (!before.dataDeps.count(entry))
            out.insert(entry);
    }
    return out;
}

std::vector<Diagnostic>
diagnosticsFromCacheIssues(const std::vector<CacheFileIssue> &issues)
{
    std::vector<Diagnostic> out;
    out.reserve(issues.size());
    for (const CacheFileIssue &issue : issues) {
        // Unregistered cache rules (cache-torn) are warnings.
        Severity severity = Severity::warning;
        for (const LintRuleInfo &rule : lintRules()) {
            if (issue.rule == rule.id)
                severity = rule.severity;
        }
        Diagnostic d;
        d.rule = issue.rule;
        d.severity = severity;
        d.message = issue.message + " (cache-file offset " +
                    std::to_string(issue.offset) + ")";
        out.push_back(std::move(d));
    }
    return out;
}

std::vector<Diagnostic>
diagnosticsFromSbfIssues(const std::vector<SbfIssue> &issues)
{
    std::vector<Diagnostic> out;
    out.reserve(issues.size());
    for (const SbfIssue &issue : issues) {
        Diagnostic d;
        d.rule = issue.rule;
        d.severity = Severity::error;
        d.message = issue.message + " (container offset " +
                    std::to_string(issue.offset) + ")";
        out.push_back(std::move(d));
    }
    return out;
}

namespace
{

/**
 * Minimal scanner for the JSON that LintReport::renderJson() emits:
 * a top-level object whose "findings" member is an array of flat
 * objects with string values. Tolerant of whitespace and member
 * order; anything structurally different fails the parse.
 */
class ReportJsonScanner
{
  public:
    explicit ReportJsonScanner(const std::string &text)
        : s_(text)
    {
    }

    bool
    parse(LintReport &out)
    {
        skipWs();
        if (!eat('{'))
            return false;
        // Scan top-level members; only "findings" matters.
        bool first = true;
        while (true) {
            skipWs();
            if (eat('}'))
                return sawFindings_;
            if (!first && !eat(','))
                return false;
            first = false;
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (!eat(':'))
                return false;
            skipWs();
            if (key == "findings") {
                if (!parseFindings(out))
                    return false;
                sawFindings_ = true;
            } else if (!skipValue()) {
                return false;
            }
        }
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                s_[pos_] == '\r' || s_[pos_] == '\t'))
            ++pos_;
    }

    bool
    eat(char c)
    {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    parseString(std::string &out)
    {
        if (!eat('"'))
            return false;
        out.clear();
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                return false;
            const char esc = s_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'u': {
                if (pos_ + 4 > s_.size())
                    return false;
                const unsigned v = static_cast<unsigned>(std::strtoul(
                    s_.substr(pos_, 4).c_str(), nullptr, 16));
                pos_ += 4;
                out += static_cast<char>(v & 0xff);
                break;
              }
              default:
                return false;
            }
        }
        return false;
    }

    /** Skip any scalar / object / array value (no capture). */
    bool
    skipValue()
    {
        skipWs();
        if (pos_ >= s_.size())
            return false;
        const char c = s_[pos_];
        if (c == '"') {
            std::string scratch;
            return parseString(scratch);
        }
        if (c == '{' || c == '[') {
            const char close = c == '{' ? '}' : ']';
            ++pos_;
            skipWs();
            if (eat(close))
                return true;
            while (true) {
                if (!skipValue())
                    return false;
                skipWs();
                if (eat(close))
                    return true;
                if (eat(',')) {
                    skipWs();
                    // Object members: "key": value.
                    if (close == '}' ) {
                        std::string key;
                        if (!parseString(key))
                            return false;
                        skipWs();
                        if (!eat(':'))
                            return false;
                    }
                    continue;
                }
                if (eat(':')) // first member of an object
                    continue;
                return false;
            }
        }
        // Bare scalar: number / true / false / null.
        const std::size_t start = pos_;
        while (pos_ < s_.size() && s_[pos_] != ',' &&
               s_[pos_] != '}' && s_[pos_] != ']' &&
               s_[pos_] != ' ' && s_[pos_] != '\n')
            ++pos_;
        return pos_ > start;
    }

    bool
    parseFindings(LintReport &out)
    {
        if (!eat('['))
            return false;
        skipWs();
        if (eat(']'))
            return true;
        while (true) {
            skipWs();
            if (!eat('{'))
                return false;
            Diagnostic d;
            bool first = true;
            while (true) {
                skipWs();
                if (eat('}'))
                    break;
                if (!first && !eat(','))
                    return false;
                first = false;
                skipWs();
                std::string key, value;
                if (!parseString(key))
                    return false;
                skipWs();
                if (!eat(':'))
                    return false;
                skipWs();
                if (!parseString(value))
                    return false;
                if (key == "rule") {
                    d.rule = value;
                } else if (key == "severity") {
                    const auto sev = parseSeverity(value);
                    if (!sev)
                        return false;
                    d.severity = *sev;
                } else if (key == "function") {
                    d.function = value == "-" ? "" : value;
                } else if (key == "orig" || key == "new") {
                    Addr addr = invalid_addr;
                    if (value.rfind("0x", 0) == 0)
                        addr = std::strtoull(value.c_str(), nullptr,
                                             16);
                    (key == "orig" ? d.origAddr : d.newAddr) = addr;
                } else if (key == "message") {
                    d.message = value;
                }
            }
            if (d.rule.empty())
                return false;
            out.findings.push_back(std::move(d));
            skipWs();
            if (eat(']'))
                return true;
            if (!eat(','))
                return false;
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
    bool sawFindings_ = false;
};

} // namespace

std::optional<LintReport>
parseLintReportJson(const std::string &text)
{
    LintReport report;
    ReportJsonScanner scanner(text);
    if (!scanner.parse(report))
        return std::nullopt;
    return report;
}

std::string
LintReport::renderText() const
{
    std::string out;
    if (!findings.empty())
        out += renderDiagnosticsText(findings);
    char line[192];
    std::snprintf(
        line, sizeof(line),
        "lint: %s (%u errors, %u warnings, %u notes)\n",
        countAtLeast(Severity::error) ? "FAIL"
        : findings.empty()            ? "clean"
                                      : "clean with warnings",
        countAtLeast(Severity::error),
        countAtLeast(Severity::warning) -
            countAtLeast(Severity::error),
        static_cast<unsigned>(findings.size()) -
            countAtLeast(Severity::warning));
    out += line;
    std::snprintf(
        line, sizeof(line),
        "checked: %llu trampolines, %llu clone entries, %llu "
        "func-ptr cells, %llu ra-map pairs, %llu FDEs, %llu "
        "read-sets\n",
        static_cast<unsigned long long>(checkedTrampolines),
        static_cast<unsigned long long>(checkedCloneEntries),
        static_cast<unsigned long long>(checkedFuncPtrs),
        static_cast<unsigned long long>(checkedRaPairs),
        static_cast<unsigned long long>(checkedFdes),
        static_cast<unsigned long long>(checkedDataDeps));
    out += line;
    return out;
}

LintDiff
diffReports(const LintReport &before, const LintReport &after)
{
    // Match findings by (function, rule, severity) with
    // multiplicity; addresses differ between any two binaries and
    // do not participate.
    auto key = [](const Diagnostic &d) {
        return d.function + '\x1f' + d.rule + '\x1f' +
               static_cast<char>('0' +
                                 static_cast<unsigned>(d.severity));
    };

    LintDiff diff;
    std::map<std::string, LintDiff::FuncDelta> by_func;
    auto tally = [](const Diagnostic &d, unsigned &err,
                    unsigned &warn, unsigned &note) {
        switch (d.severity) {
          case Severity::error: ++err; break;
          case Severity::warning: ++warn; break;
          case Severity::info: ++note; break;
        }
    };

    std::map<std::string, int> baseline;
    for (const Diagnostic &d : before.findings)
        ++baseline[key(d)];
    for (const Diagnostic &d : after.findings) {
        auto it = baseline.find(key(d));
        if (it != baseline.end() && it->second > 0) {
            --it->second;
            continue;
        }
        by_func[d.function].regressions.push_back(d);
        tally(d, diff.newErrors, diff.newWarnings, diff.newNotes);
    }

    std::map<std::string, int> current;
    for (const Diagnostic &d : after.findings)
        ++current[key(d)];
    for (const Diagnostic &d : before.findings) {
        auto it = current.find(key(d));
        if (it != current.end() && it->second > 0) {
            --it->second;
            continue;
        }
        by_func[d.function].resolved.push_back(d);
        tally(d, diff.resolvedErrors, diff.resolvedWarnings,
              diff.resolvedNotes);
    }

    for (auto &[name, delta] : by_func) {
        delta.function = name;
        diff.functions.push_back(std::move(delta));
    }
    return diff;
}

std::string
LintDiff::renderText() const
{
    std::string out;
    for (const FuncDelta &f : functions) {
        out += "function " +
               (f.function.empty() ? std::string("<image>")
                                   : f.function) +
               ":\n";
        for (const Diagnostic &d : f.regressions) {
            out += "  + [" +
                   std::string(severityName(d.severity)) + "] " +
                   d.rule + ": " + d.message + "\n";
        }
        for (const Diagnostic &d : f.resolved) {
            out += "  - [" +
                   std::string(severityName(d.severity)) + "] " +
                   d.rule + ": " + d.message + "\n";
        }
    }
    char line[160];
    std::snprintf(
        line, sizeof(line),
        "lint-diff: %u new (%u errors, %u warnings), %u resolved "
        "(%u errors, %u warnings)\n",
        newErrors + newWarnings + newNotes, newErrors, newWarnings,
        resolvedErrors + resolvedWarnings + resolvedNotes,
        resolvedErrors, resolvedWarnings);
    out += line;
    return out;
}

std::string
LintDiff::renderJson() const
{
    std::string out = "{";
    char buf[192];
    std::snprintf(
        buf, sizeof(buf),
        "\"new_errors\": %u, \"new_warnings\": %u, "
        "\"new_notes\": %u, \"resolved_errors\": %u, "
        "\"resolved_warnings\": %u, \"resolved_notes\": %u, "
        "\"functions\": [",
        newErrors, newWarnings, newNotes, resolvedErrors,
        resolvedWarnings, resolvedNotes);
    out += buf;
    bool first = true;
    for (const FuncDelta &f : functions) {
        if (!first)
            out += ", ";
        first = false;
        out += "{\"function\": \"" + f.function + "\", ";
        out += "\"regressions\": " +
               renderDiagnosticsJson(f.regressions) + ", ";
        out += "\"resolved\": " +
               renderDiagnosticsJson(f.resolved) + "}";
    }
    out += "]}";
    return out;
}

std::string
LintReport::renderJson() const
{
    const unsigned errors = countAtLeast(Severity::error);
    const unsigned warnings =
        countAtLeast(Severity::warning) - errors;
    const unsigned notes =
        static_cast<unsigned>(findings.size()) - errors - warnings;
    std::string out = "{";
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "\"clean\": %s, \"errors\": %u, \"warnings\": %u, "
        "\"notes\": %u, ",
        findings.empty() ? "true" : "false", errors, warnings,
        notes);
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "\"checked\": {\"trampolines\": %llu, \"clone_entries\": "
        "%llu, \"func_ptrs\": %llu, \"ra_pairs\": %llu, \"fdes\": "
        "%llu, \"data_deps\": %llu}, ",
        static_cast<unsigned long long>(checkedTrampolines),
        static_cast<unsigned long long>(checkedCloneEntries),
        static_cast<unsigned long long>(checkedFuncPtrs),
        static_cast<unsigned long long>(checkedRaPairs),
        static_cast<unsigned long long>(checkedFdes),
        static_cast<unsigned long long>(checkedDataDeps));
    out += buf;
    out += "\"findings\": " + renderDiagnosticsJson(findings);
    out += "}";
    return out;
}

} // namespace icp

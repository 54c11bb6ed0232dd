#include "verify/diagnostics.hh"

#include <cstdio>

#include "support/table.hh"

namespace icp
{

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::info: return "info";
      case Severity::warning: return "warning";
      case Severity::error: return "error";
    }
    return "?";
}

std::optional<Severity>
parseSeverity(const std::string &name)
{
    for (Severity s :
         {Severity::info, Severity::warning, Severity::error}) {
        if (name == severityName(s))
            return s;
    }
    return std::nullopt;
}

const std::vector<LintRuleInfo> &
lintRules()
{
    static const std::vector<LintRuleInfo> rules = {
        {"tramp-target", Severity::error,
         "trampoline chain must land on a relocated instruction "
         "boundary matching the manifest target"},
        {"tramp-range", Severity::error,
         "branch displacement exceeds the ISA's enforced reach"},
        {"tramp-chain", Severity::error,
         "multi-hop trampoline chain loops or never terminates"},
        {"tramp-scratch-live", Severity::error,
         "long-form trampoline scratch register is live at the site"},
        {"toc-preserved", Severity::error,
         "ppc64le trampoline clobbers the TOC register"},
        {"tramp-trap", Severity::warning,
         "trap-fallback trampoline depends on runtime redirection"},
        {"jt-clone-target", Severity::error,
         "cloned jump-table entry does not decode to the relocated "
         "block head"},
        {"jt-clone-bounds", Severity::error,
         "cloned jump-table extent escapes .newrodata"},
        {"patch-overlap", Severity::error,
         "patch bytes overlap another patch, protected table data, "
         "or a rewriter-generated section"},
        {"addr-map-round-trip", Severity::error,
         "address maps are non-injective, out of range, or disagree "
         "with the serialized .ra_map/.trap_map"},
        {"eh-frame-cover", Severity::error,
         "instrumented function lost its original unwind coverage"},
        {"func-ptr-target", Severity::error,
         "rewritten pointer cell does not load to its relocated "
         "target"},
        {"datadep-missing", Severity::error,
         "cloned jump table or loaded pointer cell whose source "
         "bytes are absent from the owner's recorded read-set"},
        {"datadep-stale", Severity::error,
         "recorded read-set range hash disagrees with the image"},
        {"datadep-overbroad", Severity::warning,
         "recorded read-set exceeds the analysis slice's actual "
         "reads beyond the audit threshold"},
        {"lint-input", Severity::error,
         "rewrite failed; there is no output image to verify"},
        {"lint-manifest", Severity::error,
         "rewrite ran without manifest recording (lint disabled)"},
        {"sbf-magic", Severity::error,
         "container does not start with the SBF magic"},
        {"sbf-truncated", Severity::error,
         "container field or payload runs past the end of the blob"},
        {"sbf-tag", Severity::error,
         "unknown arch, section-kind or symbol-kind tag"},
        {"sbf-section-bounds", Severity::error,
         "section payload exceeds its memory size or wraps"},
        {"sbf-section-overlap", Severity::error,
         "two sections share addresses"},
        {"sbf-payload", Severity::error,
         "an .eh_frame, .ra_map or .trap_map payload does not parse"},
        {"sbf-symbol", Severity::error,
         "a function symbol starts in a section but runs past its "
         "stored bytes"},
        {"sbf-reloc", Severity::error,
         "a relocation's 8-byte slot lies outside every loadable "
         "section"},
        {"cache-magic", Severity::warning,
         "analysis-cache file does not start with the ICPC magic"},
        {"cache-version", Severity::info,
         "analysis-cache file has another format version; it is "
         "ignored and the next save overwrites it"},
        {"cache-truncated", Severity::warning,
         "analysis-cache entry runs past the end of the file"},
        {"cache-checksum", Severity::warning,
         "analysis-cache entry payload fails its checksum"},
        {"cache-entry", Severity::warning,
         "analysis-cache entry is of an unknown kind or its payload "
         "does not decode"},
    };
    return rules;
}

unsigned
countAtLeast(const std::vector<Diagnostic> &findings, Severity floor)
{
    unsigned n = 0;
    for (const Diagnostic &d : findings)
        if (d.severity >= floor)
            ++n;
    return n;
}

namespace
{

std::string
addrCell(Addr a)
{
    if (a == invalid_addr)
        return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(a));
    return buf;
}

TextTable
findingsTable(const std::vector<Diagnostic> &findings)
{
    TextTable table({"rule", "severity", "function", "orig", "new",
                     "message"});
    for (const Diagnostic &d : findings)
        table.addRow({d.rule, severityName(d.severity),
                      d.function.empty() ? "-" : d.function,
                      addrCell(d.origAddr), addrCell(d.newAddr),
                      d.message});
    return table;
}

} // namespace

std::string
renderDiagnosticsText(const std::vector<Diagnostic> &findings)
{
    if (findings.empty())
        return "";
    return findingsTable(findings).render();
}

std::string
renderDiagnosticsJson(const std::vector<Diagnostic> &findings)
{
    return findingsTable(findings).json();
}

} // namespace icp

/**
 * @file
 * Diagnostics engine for the static soundness verifier: structured
 * findings with a rule id, severity, the original and rewritten
 * addresses involved, and the containing function, plus text and
 * JSON renderers built on the shared table support.
 */

#ifndef ICP_VERIFY_DIAGNOSTICS_HH
#define ICP_VERIFY_DIAGNOSTICS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/types.hh"

namespace icp
{

enum class Severity : std::uint8_t
{
    info = 0,
    warning = 1,
    error = 2,
};

/** Printable severity name ("info" / "warning" / "error"). */
const char *severityName(Severity severity);

/** Parse a --fail-on argument; nullopt on unknown names. */
std::optional<Severity> parseSeverity(const std::string &name);

/** One finding from the verifier (or from SBF container checking). */
struct Diagnostic
{
    std::string rule;
    Severity severity = Severity::error;

    /** Original-image address involved (invalid_addr when none). */
    Addr origAddr = invalid_addr;

    /** Rewritten-image address involved (invalid_addr when none). */
    Addr newAddr = invalid_addr;

    std::string function; ///< containing function, when known
    std::string message;

    /**
     * The function entry the verifier checked the finding's site
     * under (the key LintOptions::onlyFunctions selects by, and the
     * one a merged report carries by); invalid_addr when none. Not
     * rendered.
     */
    Addr funcEntry = invalid_addr;

    bool operator==(const Diagnostic &) const = default;
};

/** A registered lint rule: id, default severity, one-line summary. */
struct LintRuleInfo
{
    const char *id;
    Severity severity;
    const char *summary;
};

/** The full rule registry (soundness + container rules). */
const std::vector<LintRuleInfo> &lintRules();

/** Number of findings with severity >= @p floor. */
unsigned countAtLeast(const std::vector<Diagnostic> &findings,
                      Severity floor);

/** Render findings as a text table (one row per finding). */
std::string
renderDiagnosticsText(const std::vector<Diagnostic> &findings);

/** Render findings as a JSON array of row objects. */
std::string
renderDiagnosticsJson(const std::vector<Diagnostic> &findings);

} // namespace icp

#endif // ICP_VERIFY_DIAGNOSTICS_HH

"""Common Weakness Enumeration catalog.

A curated offline snapshot of the CWE entries that dominate NVD data,
including every type named in Table 10 of the paper and the sentinel
labels (``NVD-CWE-Other``, ``NVD-CWE-noinfo``) whose prevalence the
paper quantifies (§4.4: ≈31% of CVEs carry a sentinel or no label).

The real CWE list (version 3.4, referenced by the paper) holds several
hundred weaknesses; NVD uses a much smaller working subset.  This
catalog carries ~160 concrete weaknesses — enough to reproduce the
151-class description classifier of §4.4 — plus helpers for the
``CWE-[0-9]*`` extraction regex used for the consistency fix.
"""

from __future__ import annotations

import dataclasses
import re

__all__ = [
    "CweEntry",
    "CATALOG",
    "SENTINEL_OTHER",
    "SENTINEL_NOINFO",
    "SENTINELS",
    "CWE_ID_PATTERN",
    "CWE_LABEL",
    "MAX_CWE_DIGITS",
    "all_ids",
    "extract_cwe_ids",
    "get",
    "is_sentinel",
    "normalize_cwe_id",
]

#: Sentinel labels NVD applies when no specific CWE is assigned.
SENTINEL_OTHER = "NVD-CWE-Other"
SENTINEL_NOINFO = "NVD-CWE-noinfo"
SENTINELS = frozenset({SENTINEL_OTHER, SENTINEL_NOINFO})

#: The paper's extraction regex (§4.4): "CWE-[0-9]*".
CWE_ID_PATTERN = re.compile(r"CWE-[0-9]+")

#: digits a concrete ``CWE-`` label may carry; the catalogue's ids are
#: all below 1,500, and the §4.3 CWE feature divides the id as a float.
MAX_CWE_DIGITS = 6
#: a well-formed concrete label (use with ``fullmatch``): the service
#: rejects any other ``CWE-`` label with a 400, and the severity
#: features skip it.
CWE_LABEL = re.compile(rf"CWE-[0-9]{{1,{MAX_CWE_DIGITS}}}")


@dataclasses.dataclass(frozen=True, slots=True)
class CweEntry:
    """One weakness type: numeric id, official name, short label."""

    cwe_id: str
    name: str
    short: str

    @property
    def number(self) -> int:
        return int(self.cwe_id.split("-", 1)[1])


def _e(number: int, name: str, short: str) -> CweEntry:
    return CweEntry(f"CWE-{number}", name, short)


#: Offline CWE snapshot.  Short labels follow Table 10's footnotes where
#: the paper defines one (e.g. "BO" = Buffer Overflow).
CATALOG: dict[str, CweEntry] = {
    entry.cwe_id: entry
    for entry in [
        _e(5, "J2EE Misconfiguration: Data Transmission Without Encryption", "J2EE"),
        _e(16, "Configuration", "Config"),
        _e(17, "DEPRECATED: Code", "Code"),
        _e(19, "Data Processing Errors", "Data"),
        _e(20, "Improper Input Validation", "IV"),
        _e(21, "DEPRECATED: Pathname Traversal and Equivalence Errors", "PathEq"),
        _e(22, "Improper Limitation of a Pathname to a Restricted Directory ('Path Traversal')", "PT"),
        _e(23, "Relative Path Traversal", "RelPT"),
        _e(24, "Path Traversal: '../filedir'", "PT../"),
        _e(28, "Path Traversal: '..\\filedir'", "PT..\\"),
        _e(59, "Improper Link Resolution Before File Access ('Link Following')", "Link"),
        _e(61, "UNIX Symbolic Link (Symlink) Following", "Symlink"),
        _e(62, "UNIX Hard Link", "Hardlink"),
        _e(64, "Windows Shortcut Following (.LNK)", "LNK"),
        _e(73, "External Control of File Name or Path", "ExtPath"),
        _e(74, "Improper Neutralization of Special Elements in Output Used by a Downstream Component ('Injection')", "Inj"),
        _e(77, "Improper Neutralization of Special Elements used in a Command ('Command Injection')", "CMD"),
        _e(78, "Improper Neutralization of Special Elements used in an OS Command ('OS Command Injection')", "OSCMD"),
        _e(79, "Improper Neutralization of Input During Web Page Generation ('Cross-site Scripting')", "XSS"),
        _e(80, "Improper Neutralization of Script-Related HTML Tags in a Web Page (Basic XSS)", "BasicXSS"),
        _e(88, "Improper Neutralization of Argument Delimiters in a Command ('Argument Injection')", "ArgInj"),
        _e(89, "Improper Neutralization of Special Elements used in an SQL Command ('SQL Injection')", "SQLI"),
        _e(90, "Improper Neutralization of Special Elements used in an LDAP Query ('LDAP Injection')", "LDAP"),
        _e(91, "XML Injection (aka Blind XPath Injection)", "XMLInj"),
        _e(93, "Improper Neutralization of CRLF Sequences ('CRLF Injection')", "CRLF"),
        _e(94, "Improper Control of Generation of Code ('Code Injection')", "CI"),
        _e(95, "Improper Neutralization of Directives in Dynamically Evaluated Code ('Eval Injection')", "Eval"),
        _e(96, "Improper Neutralization of Directives in Statically Saved Code ('Static Code Injection')", "StaticCI"),
        _e(98, "Improper Control of Filename for Include/Require Statement in PHP Program ('PHP Remote File Inclusion')", "RFI"),
        _e(99, "Improper Control of Resource Identifiers ('Resource Injection')", "ResInj"),
        _e(113, "Improper Neutralization of CRLF Sequences in HTTP Headers ('HTTP Response Splitting')", "RespSplit"),
        _e(116, "Improper Encoding or Escaping of Output", "Encode"),
        _e(118, "Incorrect Access of Indexable Resource ('Range Error')", "Range"),
        _e(119, "Improper Restriction of Operations within the Bounds of a Memory Buffer", "BO"),
        _e(120, "Buffer Copy without Checking Size of Input ('Classic Buffer Overflow')", "ClassicBO"),
        _e(121, "Stack-based Buffer Overflow", "StackBO"),
        _e(122, "Heap-based Buffer Overflow", "HeapBO"),
        _e(123, "Write-what-where Condition", "WWW"),
        _e(124, "Buffer Underwrite ('Buffer Underflow')", "BU"),
        _e(125, "Out-of-bounds Read", "BoR"),
        _e(126, "Buffer Over-read", "OverRead"),
        _e(127, "Buffer Under-read", "UnderRead"),
        _e(129, "Improper Validation of Array Index", "ArrayIdx"),
        _e(131, "Incorrect Calculation of Buffer Size", "BufCalc"),
        _e(134, "Use of Externally-Controlled Format String", "Format"),
        _e(170, "Improper Null Termination", "NullTerm"),
        _e(172, "Encoding Error", "EncErr"),
        _e(178, "Improper Handling of Case Sensitivity", "Case"),
        _e(184, "Incomplete List of Disallowed Inputs", "Denylist"),
        _e(185, "Incorrect Regular Expression", "Regex"),
        _e(189, "Numeric Errors", "NE"),
        _e(190, "Integer Overflow or Wraparound", "IO"),
        _e(191, "Integer Underflow (Wrap or Wraparound)", "IU"),
        _e(193, "Off-by-one Error", "OffByOne"),
        _e(200, "Exposure of Sensitive Information to an Unauthorized Actor", "IE"),
        _e(201, "Insertion of Sensitive Information Into Sent Data", "SentData"),
        _e(202, "Exposure of Sensitive Information Through Data Queries", "Query"),
        _e(203, "Observable Discrepancy", "Discrepancy"),
        _e(204, "Observable Response Discrepancy", "RespDisc"),
        _e(209, "Generation of Error Message Containing Sensitive Information", "ErrMsg"),
        _e(212, "Improper Removal of Sensitive Information Before Storage or Transfer", "Removal"),
        _e(216, "DEPRECATED: Containment Errors (Container Errors)", "Container"),
        _e(222, "Truncation of Security-relevant Information", "Trunc"),
        _e(226, "Sensitive Information in Resource Not Removed Before Reuse", "Reuse"),
        _e(254, "7PK - Security Features", "SecFeat"),
        _e(255, "Credentials Management Errors", "CD"),
        _e(256, "Plaintext Storage of a Password", "PlainPwd"),
        _e(259, "Use of Hard-coded Password", "HardPwd"),
        _e(264, "Permissions, Privileges, and Access Controls", "PM"),
        _e(265, "Privilege Issues", "Priv"),
        _e(266, "Incorrect Privilege Assignment", "PrivAssign"),
        _e(269, "Improper Privilege Management", "PrivMgmt"),
        _e(270, "Privilege Context Switching Error", "PrivCtx"),
        _e(272, "Least Privilege Violation", "LeastPriv"),
        _e(273, "Improper Check for Dropped Privileges", "DropPriv"),
        _e(274, "Improper Handling of Insufficient Privileges", "InsuffPriv"),
        _e(275, "Permission Issues", "Perm"),
        _e(276, "Incorrect Default Permissions", "DefPerm"),
        _e(281, "Improper Preservation of Permissions", "PresPerm"),
        _e(284, "Improper Access Control", "AC"),
        _e(285, "Improper Authorization", "IA"),
        _e(287, "Improper Authentication", "Auth"),
        _e(288, "Authentication Bypass Using an Alternate Path or Channel", "AuthAlt"),
        _e(290, "Authentication Bypass by Spoofing", "Spoof"),
        _e(294, "Authentication Bypass by Capture-replay", "Replay"),
        _e(295, "Improper Certificate Validation", "Cert"),
        _e(297, "Improper Validation of Certificate with Host Mismatch", "CertHost"),
        _e(306, "Missing Authentication for Critical Function", "NoAuth"),
        _e(307, "Improper Restriction of Excessive Authentication Attempts", "Brute"),
        _e(310, "Cryptographic Issues", "CR"),
        _e(311, "Missing Encryption of Sensitive Data", "NoEnc"),
        _e(312, "Cleartext Storage of Sensitive Information", "ClearStore"),
        _e(319, "Cleartext Transmission of Sensitive Information", "ClearTx"),
        _e(320, "Key Management Errors", "KeyMgmt"),
        _e(326, "Inadequate Encryption Strength", "WeakEnc"),
        _e(327, "Use of a Broken or Risky Cryptographic Algorithm", "BrokenCrypto"),
        _e(330, "Use of Insufficiently Random Values", "Random"),
        _e(331, "Insufficient Entropy", "Entropy"),
        _e(335, "Incorrect Usage of Seeds in Pseudo-Random Number Generator (PRNG)", "Seed"),
        _e(338, "Use of Cryptographically Weak Pseudo-Random Number Generator (PRNG)", "WeakPRNG"),
        _e(345, "Insufficient Verification of Data Authenticity", "Authn"),
        _e(346, "Origin Validation Error", "Origin"),
        _e(347, "Improper Verification of Cryptographic Signature", "Sig"),
        _e(352, "Cross-Site Request Forgery (CSRF)", "CSRF"),
        _e(354, "Improper Validation of Integrity Check Value", "Integrity"),
        _e(358, "Improperly Implemented Security Check for Standard", "SecCheck"),
        _e(359, "Exposure of Private Personal Information to an Unauthorized Actor", "Privacy"),
        _e(362, "Concurrent Execution using Shared Resource with Improper Synchronization ('Race Condition')", "Race"),
        _e(367, "Time-of-check Time-of-use (TOCTOU) Race Condition", "TOCTOU"),
        _e(369, "Divide By Zero", "DivZero"),
        _e(371, "State Issues", "State"),
        _e(377, "Insecure Temporary File", "TmpFile"),
        _e(384, "Session Fixation", "SessFix"),
        _e(388, "7PK - Errors", "Errors"),
        _e(399, "Resource Management Errors", "RM"),
        _e(400, "Uncontrolled Resource Consumption", "DoS"),
        _e(401, "Missing Release of Memory after Effective Lifetime", "MemLeak"),
        _e(404, "Improper Resource Shutdown or Release", "Shutdown"),
        _e(407, "Inefficient Algorithmic Complexity", "AlgoDoS"),
        _e(415, "Double Free", "DoubleFree"),
        _e(416, "Use After Free", "UaF"),
        _e(417, "Communication Channel Errors", "Channel"),
        _e(425, "Direct Request ('Forced Browsing')", "Forced"),
        _e(426, "Untrusted Search Path", "SearchPath"),
        _e(427, "Uncontrolled Search Path Element", "PathElem"),
        _e(428, "Unquoted Search Path or Element", "Unquoted"),
        _e(434, "Unrestricted Upload of File with Dangerous Type", "Upload"),
        _e(441, "Unintended Proxy or Intermediary ('Confused Deputy')", "Deputy"),
        _e(444, "Inconsistent Interpretation of HTTP Requests ('HTTP Request Smuggling')", "Smuggle"),
        _e(459, "Incomplete Cleanup", "Cleanup"),
        _e(470, "Use of Externally-Controlled Input to Select Classes or Code ('Unsafe Reflection')", "Reflect"),
        _e(476, "NULL Pointer Dereference", "NullDeref"),
        _e(494, "Download of Code Without Integrity Check", "Download"),
        _e(502, "Deserialization of Untrusted Data", "Deser"),
        _e(521, "Weak Password Requirements", "WeakPwd"),
        _e(522, "Insufficiently Protected Credentials", "WeakCred"),
        _e(532, "Insertion of Sensitive Information into Log File", "LogLeak"),
        _e(534, "DEPRECATED: Information Exposure Through Debug Log Files", "DebugLog"),
        _e(538, "Insertion of Sensitive Information into Externally-Accessible File or Directory", "FileLeak"),
        _e(552, "Files or Directories Accessible to External Parties", "OpenFiles"),
        _e(565, "Reliance on Cookies without Validation and Integrity Checking", "Cookie"),
        _e(601, "URL Redirection to Untrusted Site ('Open Redirect')", "Redirect"),
        _e(610, "Externally Controlled Reference to a Resource in Another Sphere", "ExtRef"),
        _e(611, "Improper Restriction of XML External Entity Reference", "XXE"),
        _e(613, "Insufficient Session Expiration", "SessExp"),
        _e(617, "Reachable Assertion", "Assert"),
        _e(639, "Authorization Bypass Through User-Controlled Key", "IDOR"),
        _e(640, "Weak Password Recovery Mechanism for Forgotten Password", "PwdRecover"),
        _e(665, "Improper Initialization", "Init"),
        _e(667, "Improper Locking", "Lock"),
        _e(668, "Exposure of Resource to Wrong Sphere", "Sphere"),
        _e(669, "Incorrect Resource Transfer Between Spheres", "Transfer"),
        _e(674, "Uncontrolled Recursion", "Recursion"),
        _e(681, "Incorrect Conversion between Numeric Types", "NumConv"),
        _e(682, "Incorrect Calculation", "Calc"),
        _e(693, "Protection Mechanism Failure", "ProtFail"),
        _e(704, "Incorrect Type Conversion or Cast", "Cast"),
        _e(732, "Incorrect Permission Assignment for Critical Resource", "PermAssign"),
        _e(749, "Exposed Dangerous Method or Function", "Exposed"),
        _e(754, "Improper Check for Unusual or Exceptional Conditions", "Except"),
        _e(755, "Improper Handling of Exceptional Conditions", "ExcHandle"),
        _e(759, "Use of a One-Way Hash without a Salt", "NoSalt"),
        _e(772, "Missing Release of Resource after Effective Lifetime", "ResLeak"),
        _e(776, "Improper Restriction of Recursive Entity References in DTDs ('XML Entity Expansion')", "Billion"),
        _e(787, "Out-of-bounds Write", "OOBW"),
        _e(798, "Use of Hard-coded Credentials", "HardCred"),
        _e(822, "Untrusted Pointer Dereference", "UntrustedPtr"),
        _e(824, "Access of Uninitialized Pointer", "UninitPtr"),
        _e(829, "Inclusion of Functionality from Untrusted Control Sphere", "Include"),
        _e(834, "Excessive Iteration", "Iter"),
        _e(835, "Loop with Unreachable Exit Condition ('Infinite Loop')", "InfLoop"),
        _e(843, "Access of Resource Using Incompatible Type ('Type Confusion')", "TypeConf"),
        _e(862, "Missing Authorization", "NoAuthz"),
        _e(863, "Incorrect Authorization", "BadAuthz"),
        _e(908, "Use of Uninitialized Resource", "Uninit"),
        _e(909, "Missing Initialization of Resource", "NoInit"),
        _e(916, "Use of Password Hash With Insufficient Computational Effort", "WeakHash"),
        _e(918, "Server-Side Request Forgery (SSRF)", "SSRF"),
        _e(942, "Permissive Cross-domain Policy with Untrusted Domains", "CORS"),
        _e(1021, "Improper Restriction of Rendered UI Layers or Frames ('Clickjacking')", "Clickjack"),
        _e(1188, "Initialization of a Resource with an Insecure Default", "InsecDefault"),
    ]
}


def all_ids() -> list[str]:
    """All concrete CWE ids in the catalog, numerically sorted."""
    return sorted(CATALOG, key=lambda cid: int(cid.split("-")[1]))


def get(cwe_id: str) -> CweEntry | None:
    """Look up a catalog entry; ``None`` for unknown or sentinel ids."""
    return CATALOG.get(normalize_cwe_id(cwe_id) or "")


def is_sentinel(label: str | None) -> bool:
    """True for NVD's "no specific weakness" sentinel labels or None."""
    return label is None or label in SENTINELS


def normalize_cwe_id(text: str) -> str | None:
    """Normalize ``cwe-79``/``CWE-079``-style ids to canonical form."""
    match = re.fullmatch(r"(?i)cwe-0*([0-9]+)", text.strip())
    if not match:
        return None
    return f"CWE-{int(match.group(1))}"


def extract_cwe_ids(text: str) -> list[str]:
    """Extract all CWE ids from free text (the paper's §4.4 regex).

    Returns canonical ids, de-duplicated, in order of first appearance.
    """
    seen: set[str] = set()
    result: list[str] = []
    for raw in CWE_ID_PATTERN.findall(text):
        canonical = normalize_cwe_id(raw)
        if canonical and canonical not in seen:
            seen.add(canonical)
            result.append(canonical)
    return result

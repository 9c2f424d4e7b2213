#!/usr/bin/env python3
"""Hot-path discipline static pass (ISSUE 7).

Walks the call graph from every function annotated CO_HOT_PATH (the
broadcast/dispatch spine: CoSession::broadcast / deliver,
SessionManager::run_strand, protocol::encode_message, TcpChannel::send /
service, Reactor::loop) and reports every reachable

  - allocation        (operator new / malloc family), categorized as
                      container-growth / string-construction / plain,
  - throw             (__cxa_allocate_exception / __cxa_throw emitted by a
                      `throw` in non-std code),
  - blocking syscall  (poll/epoll/eventfd family, condition waits, sleeps,
    connect/accept,
                      fsync, ...),

each with a call-chain witness (root -> ... -> site, with call sites).

Gating: an *allocation* finding whose witness chain matches no
`static_waivers` regex in hotpath_budget.json fails the pass (exit 1).
Throw and blocking findings are reported (and waiver-annotated) but do not
gate, matching the ratchet's acceptance bar: zero unbudgeted hot-path
allocation sites.

Call graph: the pass recompiles the src/ TUs from compile_commands.json at
-O0 with gcc's -fcallgraph-info, merges the per-TU VCG graphs, and finds the
annotated roots by grepping source for CO_HOT_PATH definition lines. -O0
keeps every structural call — at -O1 gcc already inlines _M_realloc_insert
and the string _M_construct frames into the caller (collapsing witness
chains to bare `root -> operator new` edges), and -O2 additionally drops the
__cxa_* throw edges.

When the graph cannot be built (no python3 is handled by the sh wrapper; no
gcc or compile_commands.json) the pass prints a line containing "skipping
the hotpath gate" and exits 0, so ctest's SKIP_REGULAR_EXPRESSION reports
SKIP rather than a green lie.

`--self-test` compiles a planted fixture (vector push_back + std::string +
throw under a hot root) and asserts the pass flags all three — run by
tests/test_hotpath.cpp so a silently broken analyzer fails loudly.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from collections import deque
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP_PREFIX = "hotpath_analyze: skipping the hotpath gate:"

# ---------------------------------------------------------------------------
# Classification tables.
# ---------------------------------------------------------------------------

# Allocation entry points, matched against the demangled terminal base name.
ALLOC_RE = re.compile(
    r"^(operator new(\[\])?$|malloc$|calloc$|realloc$|reallocarray$|"
    r"strdup$|strndup$|aligned_alloc$|posix_memalign$|valloc$|memalign$)"
)

# Placement operator new carries a void* placement argument and does not
# allocate.
PLACEMENT_NEW_RE = re.compile(r"operator new(\[\])?\s*\([^)]*\bvoid\*")

# std::basic_string<char> is an extern template: its allocating members have
# no body in any TU of ours, so the call graph ends at the call itself. Any
# call to one of these is therefore itself an allocation terminal (SSO may
# dodge it at runtime; statically it is an allocation site). The constructor
# alternative excludes the default and move constructors, which never
# allocate.
STRING_ALLOC_TERMINAL_RE = re.compile(
    r"basic_string<[^;]*>::("
    r"basic_string(<[^(]*>\s*)?\((?!\)|std::__cxx11::basic_string<[^)]*>&&\))|"
    r"_M_construct|_M_create|_M_mutate|_M_replace|_M_append|_M_assign|"
    r"append|assign|reserve|resize\(|push_back|insert|replace|operator\+=|operator=\((?!std)"
    r")|std::__cxx11::to_string|std::operator\+[^(]*\([^)]*basic_string"
)

# Throw machinery. std::__throw_* helpers are treated as COLD (below), so a
# throw finding means a literal `throw` in non-std code on the hot path.
THROW_RE = re.compile(r"^(__cxa_throw$|__cxa_rethrow$|__cxa_allocate_exception$)")

# Blocking entry points: syscall wrappers plus the C++/pthread wait surface.
BLOCKING_RE = re.compile(
    r"^(poll$|ppoll$|select$|pselect$|epoll_wait$|epoll_pwait$|epoll_pwait2$|"
    r"eventfd_read$|eventfd_write$|"
    r"pthread_cond_wait$|pthread_cond_timedwait$|sem_wait$|sem_timedwait$|"
    r"sleep$|usleep$|nanosleep$|clock_nanosleep$|accept4?$|connect$|"
    r"fsync$|fdatasync$|syncfs$|msync$|flock$|waitpid$|sigwait$|"
    r"std::this_thread::sleep_|std::condition_variable(_any)?::wait|"
    r"__gthread_cond_(timed)?wait|std::__sleep_for)"
)

# Never traversed into: error/abort paths. std::__throw_* is the cold
# length_error/bad_alloc tail every container growth carries — pruning it
# keeps the pass focused on throws written in cosoft code.
COLD_RE = re.compile(
    r"^(std::__throw_|__assert_fail$|abort$|exit$|_exit$|std::terminate|"
    r"__cxa_bad_cast|__cxa_pure_virtual|cosoft::detail::check_failed|"
    r"__ubsan_|__asan_|__tsan_|__sanitizer)"
    # Checked-build diagnostic machinery is cold by definition: it either
    # runs on the way to a CO_CHECK abort (invariant re-validation, check
    # message formatting) or is instrumentation the checked build
    # deliberately pays for and release builds compile out entirely (the
    # lock-order detector, the strand-confinement reporter).
    r"|^cosoft::(lockorder|strand)::|::check_invariants\b"
    r"|^cosoft::detail::format_violations"
)

# Library namespaces/entities that never count as a finding's "owner" (the
# innermost non-library frame). Frames are full demangled signatures, which
# may carry return types ("void* operator new(...)") or [with ...] template
# bindings, so this is matched by is_library_frame() below rather than
# anchored here.
_LIB_NS_RE = re.compile(
    r"\b(std|__gnu_cxx|__cxxabiv1)::|\boperator (new|delete)\b|"
    r"\b__cxa_|\b_Unwind|\b__gthread|\b__builtin"
)


def is_library_frame(display: str) -> bool:
    # Classify by the *function's* qualified name, not the raw display: a
    # std:: return type must not hide the cosoft frame it belongs to, and a
    # cosoft type in template-argument position must not promote std
    # machinery (std::__new_allocator<cosoft::net::TcpChannel*>::allocate,
    # std::_Function_handler dispatch over a cosoft lambda) into an owner
    # frame. base_name() strips the return type and parameter list, so the
    # anchored namespace test sees only the function's own scope.
    return bool(_LIB_NS_RE.match(base_name(display)))

CONTAINER_GROWTH_RE = re.compile(
    r"_M_realloc_insert|_M_realloc_append|_M_default_append|_M_create_nodes|"
    r"_M_reallocate_map|_M_rehash|_M_resize|_M_push_back_aux|_M_insert|"
    r"_M_allocate_node|_M_allocate_map|_M_grow|reserve"
)
STRING_CONSTRUCTION_RE = re.compile(r"basic_string|_M_construct|_M_create|_M_assign|_M_mutate")


# ---------------------------------------------------------------------------
# Source-level annotation scan: the roots and cold subtrees of the walk.
# ---------------------------------------------------------------------------

_SRC_EXTS = (".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh")


def scan_annotations(src_root: str):
    """Greps source for CO_HOT_PATH / CO_COLD_PATH definition lines and
    returns (hot_names, cold_names) — qualified-name suffixes such as
    `CoSession::broadcast` or `encode_message`."""
    hot, cold = set(), set()
    name_re = re.compile(r"([A-Za-z_][A-Za-z0-9_]*(?:::[A-Za-z_~][A-Za-z0-9_]*)*)\s*$")
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames[:] = [d for d in dirnames if d not in ("build", ".git")]
        for fn in filenames:
            if not fn.endswith(_SRC_EXTS) or fn == "hot_path.hpp":
                continue
            path = os.path.join(dirpath, fn)
            try:
                with open(path, "r", encoding="utf-8", errors="replace") as f:
                    lines = f.readlines()
            except OSError:
                continue
            for i, line in enumerate(lines):
                for macro, sink in (("CO_HOT_PATH", hot), ("CO_COLD_PATH", cold)):
                    if macro not in line or line.lstrip().startswith("//"):
                        continue
                    # Signature may wrap before '('; join a couple of lines.
                    text = line.split(macro, 1)[1]
                    j = i
                    while "(" not in text and j + 1 < len(lines) and j < i + 3:
                        j += 1
                        text += " " + lines[j]
                    head = text.split("(", 1)[0].strip()
                    m = name_re.search(head)
                    if m:
                        sink.add(m.group(1))
    return hot, cold


def name_matches(qualified: str, suffix: str) -> bool:
    """True when demangled base name `qualified` is `suffix` or ends with
    `::suffix` (so `CoSession::broadcast` matches the fully qualified
    `cosoft::server::CoSession::broadcast`)."""
    return qualified == suffix or qualified.endswith("::" + suffix)


def base_name(demangled: str) -> str:
    """The function name part of a demangled signature (before the parameter
    list), with any leading return type stripped."""
    # "(anonymous namespace)" would be mistaken for the parameter list.
    demangled = demangled.replace("(anonymous namespace)", "{anonymous}")
    depth = 0
    cut = len(demangled)
    # Find the '(' that opens the parameter list (skip template argument
    # lists, which use <>; operator() is not among our annotation targets).
    for idx, ch in enumerate(demangled):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif ch == "(" and depth == 0:
            cut = idx
            break
    head = demangled[:cut].strip()

    def scope_start(end: int) -> int:
        """Index where the qualified-id ending at `end` begins: walk
        backwards skipping <...> template-argument groups, stop at a
        depth-0 space / '*' / '&' / '(' (i.e. the end of a return type)."""
        angle = 0
        i = end - 1
        while i >= 0:
            ch = head[i]
            if ch == ">":
                angle += 1
            elif ch == "<":
                angle -= 1
                if angle < 0:
                    break
            elif angle == 0 and ch in " *&(":
                break
            i -= 1
        return i + 1

    # Operator functions keep their scope ("std::vector<T>::operator=", not
    # "operator="), and "void* operator new" must not collapse to "new".
    m = re.search(r"\boperator\b.*$", head)
    if m:
        return head[scope_start(m.start()):m.start()] + m.group(0)
    # Strip a return type if present ("Frame cosoft::protocol::encode_message");
    # a plain rsplit would mis-cut template argument lists with spaces
    # ("std::vector<a, b> >::f" -> ">::f"), hence the depth-aware scan.
    return head[scope_start(len(head)):] or head


# ---------------------------------------------------------------------------
# Call graph model.
# ---------------------------------------------------------------------------


class Graph:
    """Merged call graph: node id -> demangled name, adjacency with call
    sites."""

    def __init__(self):
        self.names: dict[str, str] = {}  # id -> demangled display name
        self.edges: dict[str, list[tuple[str, str]]] = {}  # id -> [(callee, site)]

    def add_node(self, node_id: str, display: str):
        prev = self.names.get(node_id)
        # Prefer the richer (longer) display name when TUs disagree.
        if prev is None or len(display) > len(prev):
            self.names[node_id] = display

    def add_edge(self, src: str, dst: str, site: str):
        self.edges.setdefault(src, []).append((dst, site))

    def display(self, node_id: str) -> str:
        return self.names.get(node_id, node_id)


class Finding:
    def __init__(self, kind: str, category: str, root: str, owner: str, terminal: str,
                 chain: list[tuple[str, str]]):
        self.kind = kind            # alloc | throw | blocking
        self.category = category    # container-growth | string-construction | ...
        self.root = root            # demangled root display name
        self.owner = owner          # innermost non-library frame
        self.terminal = terminal    # demangled site name
        self.chain = chain          # [(demangled frame, call site)] root..terminal
        self.waived_by: str | None = None

    def key(self):
        return (self.kind, self.owner, self.terminal)

    def chain_text(self) -> str:
        return " -> ".join(frame for frame, _ in self.chain)


def classify_terminal(display: str) -> str | None:
    b = base_name(display)
    if b.startswith("operator new"):
        return None if PLACEMENT_NEW_RE.search(display) else "alloc"
    if ALLOC_RE.search(b):
        return "alloc"
    if STRING_ALLOC_TERMINAL_RE.search(display):
        return "alloc"
    if THROW_RE.search(b):
        return "throw"
    if BLOCKING_RE.search(b):
        return "blocking"
    return None


def categorize(chain: list[tuple[str, str]], kind: str) -> str:
    if kind != "alloc":
        return kind
    text = " ".join(frame for frame, _ in chain)
    if CONTAINER_GROWTH_RE.search(text):
        return "container-growth"
    if STRING_CONSTRUCTION_RE.search(text):
        return "string-construction"
    return "plain-allocation"


def owner_of(chain: list[tuple[str, str]]) -> str:
    for frame, _ in reversed(chain[:-1]):
        if not is_library_frame(frame):
            return base_name(frame)
    return base_name(chain[0][0])


def walk(graph: Graph, root_ids: list[str], cold_names: set[str]) -> list[Finding]:
    """BFS per root; every reachable alloc/throw/blocking terminal becomes a
    Finding with its (shortest) witness chain."""

    def is_cold(node_id: str) -> bool:
        b = base_name(graph.display(node_id))
        if COLD_RE.search(b):
            return True
        return any(name_matches(b, c) for c in cold_names)

    findings: list[Finding] = []
    for root in root_ids:
        parent: dict[str, tuple[str, str]] = {}  # node -> (parent, site)
        seen = {root}
        q = deque([root])
        while q:
            cur = q.popleft()
            for callee, site in graph.edges.get(cur, ()):  # external leaves have no edges
                display = graph.display(callee)
                kind = classify_terminal(display)
                if kind is not None:
                    # Materialize the witness chain root -> ... -> terminal.
                    chain = [(display, site)]
                    node = cur
                    while node != root:
                        p, psite = parent[node]
                        chain.append((graph.display(node), psite))
                        node = p
                    chain.append((graph.display(root), ""))
                    chain.reverse()
                    # Re-pair each frame with the call site of the edge
                    # *leaving* it (the terminal has no outgoing site).
                    frames = [f for f, _ in chain]
                    sites = [s for _, s in chain[1:]] + [""]
                    chain = list(zip(frames, sites))
                    f = Finding(kind, categorize(chain, kind), graph.display(root),
                                owner_of(chain), base_name(display), chain)
                    findings.append(f)
                    continue  # terminals are leaves; do not traverse through
                if callee in seen or is_cold(callee):
                    continue
                seen.add(callee)
                parent[callee] = (cur, site)
                q.append(callee)
    return findings


# ---------------------------------------------------------------------------
# gcc -fcallgraph-info backend.
# ---------------------------------------------------------------------------

_VCG_ENTRY_RE = re.compile(r"(node|edge):\s*\{(.*?)\}", re.DOTALL)
_VCG_FIELD_RE = re.compile(r'(\w+):\s*"((?:[^"\\]|\\.)*)"')


def _unescape(s: str) -> str:
    return s.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def parse_vcg(path: str, graph: Graph, edge_seen: set):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    for kind, body in _VCG_ENTRY_RE.findall(text):
        fields = {k: _unescape(v) for k, v in _VCG_FIELD_RE.findall(body)}
        if kind == "node":
            title = fields.get("title", "")
            label = fields.get("label", title)
            graph.add_node(title, label.split("\n", 1)[0])
        else:
            src, dst = fields.get("sourcename"), fields.get("targetname")
            if not src or not dst:
                continue
            site = fields.get("label", "?")
            k = (src, dst, site)
            if k not in edge_seen:
                edge_seen.add(k)
                graph.add_edge(src, dst, site)


def demangle_all(graph: Graph):
    """Runs every still-mangled display name through c++filt (one batch).
    Local/COMDAT node ids come prefixed "path/to/tu.cpp:_Zmangled", so the
    mangled part is the text after the last colon."""

    def mangled_part(s: str) -> str | None:
        tail = s.rsplit(":", 1)[-1]
        return tail if tail.startswith("_Z") else None

    # Edge endpoints without their own node: entry (external callees in some
    # TUs) still need display names.
    for src, lst in graph.edges.items():
        for endpoint in [src] + [dst for dst, _ in lst]:
            graph.names.setdefault(endpoint, endpoint)

    work = []  # (node_id, mangled)
    for node_id, display in graph.names.items():
        m = mangled_part(display) or mangled_part(node_id)
        if m:
            work.append((node_id, m))
    if not work:
        return
    try:
        out = subprocess.run(["c++filt"], input="\n".join(m for _, m in work),
                             capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired):
        return
    if out.returncode != 0:
        return
    for (node_id, _), dem in zip(work, out.stdout.splitlines()):
        if dem:
            graph.names[node_id] = dem


def _adjust_command(argv: list[str], out_obj: str) -> list[str]:
    """Rewrites a compile command for the -O0 -fcallgraph-info rerun."""
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
            continue
        if a in ("-o", "-MF", "-MT", "-MQ"):
            skip = True
            continue
        if a in ("-MD", "-MMD", "-MP", "-c", "-g") or a.startswith(("-O", "-g", "-fsanitize",
                                                                    "-flto", "-fprofile",
                                                                    "--coverage",
                                                                    "-fcallgraph-info")):
            continue
        out.append(a)
    out += ["-O0", "-fcallgraph-info", "-c", "-o", out_obj]
    return out


def gcc_backend(build_dir: str, verbose: bool):
    cc_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(cc_path):
        return None, f"no compile_commands.json in {build_dir} (configure with " \
                     f"-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)"
    with open(cc_path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    src_prefix = os.path.join(REPO_ROOT, "src") + os.sep
    tus = []
    for e in entries:
        file = os.path.normpath(os.path.join(e.get("directory", "."), e["file"]))
        if file.startswith(src_prefix):
            tus.append((e, file))
    if not tus:
        return None, "compile_commands.json lists no src/ translation units"

    graph, edge_seen = Graph(), set()
    with tempfile.TemporaryDirectory(prefix="hotpath_cg_") as tmp:
        def compile_one(idx_entry):
            idx, (entry, file) = idx_entry
            argv = entry.get("arguments") or shlex.split(entry["command"])
            obj = os.path.join(tmp, f"tu{idx}.o")
            cmd = _adjust_command(argv, obj) + [file]
            # The source file may already be in argv; dedupe trailing repeats.
            if cmd.count(file) > 1:
                cmd.reverse()
                cmd.remove(file)
                cmd.reverse()
            r = subprocess.run(cmd, cwd=entry.get("directory", REPO_ROOT),
                               capture_output=True, text=True)
            return idx, file, r, obj

        failures = []
        with ThreadPoolExecutor(max_workers=max(2, (os.cpu_count() or 1))) as pool:
            for idx, file, r, obj in pool.map(compile_one, enumerate(tus)):
                if r.returncode != 0:
                    failures.append((file, r.stderr.strip()[:2000]))
                    continue
                ci = os.path.splitext(obj)[0] + ".ci"
                if os.path.isfile(ci):
                    parse_vcg(ci, graph, edge_seen)
                elif verbose:
                    print(f"hotpath_analyze: note: no .ci emitted for {file}", file=sys.stderr)
        if failures:
            for file, err in failures[:3]:
                print(f"hotpath_analyze: -O1 recompile failed for {file}:\n{err}",
                      file=sys.stderr)
            return None, f"{len(failures)} TU(s) failed the -fcallgraph-info recompile"

    demangle_all(graph)
    if verbose:
        print(f"hotpath_analyze: gcc-callgraph: {len(tus)} TUs, {len(graph.names)} nodes, "
              f"{sum(len(v) for v in graph.edges.values())} edges", file=sys.stderr)
    return graph, None


# ---------------------------------------------------------------------------
# Waivers and reporting.
# ---------------------------------------------------------------------------


def load_waivers(budget_path: str):
    try:
        with open(budget_path, "r", encoding="utf-8") as f:
            budget = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"hotpath_analyze: cannot read {budget_path}: {exc}", file=sys.stderr)
        return []
    waivers = []
    for w in budget.get("static_waivers", []):
        try:
            waivers.append((re.compile(w["owner"]), w.get("callee", ""), w.get("reason", "")))
        except re.error as exc:
            print(f"hotpath_analyze: bad waiver regex {w.get('owner')!r}: {exc}",
                  file=sys.stderr)
    return waivers


def apply_waivers(findings: list[Finding], waivers):
    for f in findings:
        # Match against the owner and the chain's *intermediate* frames only.
        # The root is excluded on purpose: it appears in every chain from
        # that root, so a root-matching waiver would blanket-waive the whole
        # subtree (allocations coded directly in the root still match via
        # owner, which falls back to the root frame).
        text = " -> ".join(frame for frame, _ in f.chain[1:-1])
        for rx, callee, reason in waivers:
            if (rx.search(f.owner) or rx.search(text)) and \
               (not callee or re.search(callee, f.terminal)):
                f.waived_by = rx.pattern
                break


def print_witness(f: Finding, out=sys.stdout):
    for i, (frame, site) in enumerate(f.chain):
        arrow = "    " if i == 0 else "      -> "
        loc = f"   [{site}]" if site else ""
        print(f"{arrow}{frame}{loc}", file=out)


def report(findings: list[Finding], verbose: bool) -> int:
    # Dedup for gating: one entry per (kind, owner, terminal); keep the
    # shortest witness.
    best: dict[tuple, Finding] = {}
    for f in findings:
        k = f.key()
        if k not in best or len(f.chain) < len(best[k].chain):
            best[k] = f
    deduped = sorted(best.values(), key=lambda f: (f.kind, f.owner, f.terminal))

    by_kind = {"alloc": [], "throw": [], "blocking": []}
    for f in deduped:
        by_kind[f.kind].append(f)

    unwaived_allocs = [f for f in by_kind["alloc"] if f.waived_by is None]

    for kind, title in (("alloc", "allocation"), ("throw", "throw"), ("blocking", "blocking")):
        group = by_kind[kind]
        if not group:
            continue
        print(f"\n== {title} sites reachable from hot-path roots: {len(group)} ==")
        for f in group:
            tag = "WAIVED" if f.waived_by else "UNWAIVED"
            print(f"[{tag}][{f.category}] {f.owner} -> {f.terminal}  (from {base_name(f.root)})")
            if f.waived_by:
                if verbose:
                    print(f"    waiver: {f.waived_by}")
                    print_witness(f)
            else:
                print_witness(f)

    print(f"\nhotpath_analyze: {len(by_kind['alloc'])} allocation site(s) "
          f"({len(unwaived_allocs)} unwaived), {len(by_kind['throw'])} throw site(s), "
          f"{len(by_kind['blocking'])} blocking site(s)")
    if unwaived_allocs:
        print("hotpath_analyze: FAIL — unwaived hot-path allocation site(s); either trim "
              "the allocation or add a justified waiver to hotpath_budget.json")
        return 1
    print("hotpath_analyze: clean — every hot-path allocation site is waived/budgeted")
    return 0


# ---------------------------------------------------------------------------
# Self test: planted allocations under a hot root must be flagged.
# ---------------------------------------------------------------------------

_SELF_TEST_SRC = r"""
#include <string>
#include <vector>
#define CO_HOT_PATH
#define CO_COLD_PATH
CO_COLD_PATH unsigned planted_cold_helper(unsigned n) {
    std::vector<unsigned> hidden(n + 1);  // must NOT be flagged (cold subtree)
    return static_cast<unsigned>(hidden.size());
}
CO_HOT_PATH unsigned planted_hot_root(std::vector<unsigned>& sink, unsigned n) {
    sink.push_back(n);                       // container growth -> operator new
    std::string s(64 + n % 3, 'x');          // string construction
    if (n == 0xdeadu) throw 42;              // __cxa_allocate_exception/__cxa_throw
    if (n == 0xbeefu) return planted_cold_helper(n);
    return static_cast<unsigned>(sink.size() + s.size());
}
int main(int argc, char**) {
    std::vector<unsigned> v;
    return static_cast<int>(planted_hot_root(v, static_cast<unsigned>(argc))) == 0;
}
"""


def self_test(verbose: bool) -> int:
    cxx = os.environ.get("CXX") or "c++"
    from shutil import which
    if which(cxx) is None:
        print(f"{SKIP_PREFIX} no C++ compiler for the self-test")
        return 0
    with tempfile.TemporaryDirectory(prefix="hotpath_selftest_") as tmp:
        src = os.path.join(tmp, "fixture.cpp")
        obj = os.path.join(tmp, "fixture.o")
        with open(src, "w", encoding="utf-8") as f:
            f.write(_SELF_TEST_SRC)
        r = subprocess.run([cxx, "-std=c++20", "-O0", "-fcallgraph-info", "-c", src, "-o", obj],
                           capture_output=True, text=True, cwd=tmp)
        if r.returncode != 0:
            if "-fcallgraph-info" in r.stderr:
                print(f"{SKIP_PREFIX} compiler does not support -fcallgraph-info")
                return 0
            print(f"hotpath_analyze: self-test fixture failed to compile:\n{r.stderr}",
                  file=sys.stderr)
            return 1
        ci = os.path.splitext(obj)[0] + ".ci"
        if not os.path.isfile(ci):
            print("hotpath_analyze: self-test: no .ci file emitted", file=sys.stderr)
            return 1
        graph, edge_seen = Graph(), set()
        parse_vcg(ci, graph, edge_seen)
        demangle_all(graph)

    hot, cold = {"planted_hot_root"}, {"planted_cold_helper"}
    roots = [nid for nid, disp in graph.names.items()
             if any(name_matches(base_name(disp), h) for h in hot)]
    if not roots:
        print("hotpath_analyze: self-test: hot root not found in call graph", file=sys.stderr)
        return 1
    findings = walk(graph, roots, cold)
    kinds = {f.kind for f in findings}
    cats = {f.category for f in findings}
    owners = " ".join(f.owner for f in findings) + " ".join(f.chain_text() for f in findings)
    problems = []
    if "alloc" not in kinds:
        problems.append("planted allocation not flagged")
    if "throw" not in kinds:
        problems.append("planted throw not flagged")
    if "container-growth" not in cats:
        problems.append("vector growth not categorized as container-growth")
    if "string-construction" not in cats:
        problems.append("std::string construction not categorized")
    if "planted_cold_helper" in owners:
        problems.append("cold subtree was traversed (CO_COLD_PATH not honored)")
    if problems:
        for p in problems:
            print(f"hotpath_analyze: self-test FAIL: {p}", file=sys.stderr)
        for f in findings:
            print(f"  [{f.kind}][{f.category}] {f.owner} -> {f.terminal}", file=sys.stderr)
        return 1
    print(f"hotpath_analyze: self-test OK ({len(findings)} planted finding(s) flagged, "
          f"cold subtree pruned)")
    return 0


# ---------------------------------------------------------------------------
# Main.
# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description="hot-path allocation/blocking static pass")
    ap.add_argument("--build-dir", default=os.path.join(REPO_ROOT, "build"))
    ap.add_argument("--budget", default=os.path.join(REPO_ROOT, "hotpath_budget.json"))
    ap.add_argument("--self-test", action="store_true",
                    help="verify the pass flags a planted allocation/throw fixture")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test(args.verbose)

    hot_names, cold_names = scan_annotations(os.path.join(REPO_ROOT, "src"))
    if not hot_names:
        print(f"{SKIP_PREFIX} no CO_HOT_PATH annotations found under src/")
        return 0
    if args.verbose:
        print(f"hotpath_analyze: roots from source scan: {sorted(hot_names)}", file=sys.stderr)

    graph, reason = gcc_backend(args.build_dir, args.verbose)
    if graph is None:
        print(f"{SKIP_PREFIX} {reason}")
        return 0
    roots = [nid for nid, disp in graph.names.items()
             if any(name_matches(base_name(disp), h) for h in hot_names)]

    if not roots:
        print(f"{SKIP_PREFIX} annotated roots not present in the call graph "
              f"(is the build dir configured for this tree?)")
        return 0
    if args.verbose:
        print("hotpath_analyze: graph roots:", file=sys.stderr)
        for r in sorted(roots):
            print(f"  {graph.display(r)}", file=sys.stderr)

    findings = walk(graph, roots, cold_names)
    apply_waivers(findings, load_waivers(args.budget))
    return report(findings, args.verbose)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""List the config-struct fields that no shipped code sets, and fail on
any that tools/unset_settings.allow does not name.

A setting that only tests write is a mode no workload runs: it costs
code and review, and its default is the only behaviour anyone gets.
tools/dead_symbols.sh finds functions nothing reaches; this finds
fields nothing sets.

For each struct in STRUCTS, the fields are read from its definition
under src/. A field counts as set when a file under bench/, examples/,
perfbench/ or src/, other than the header that defines the struct,
writes it by name:

  - an assignment, compound assignment, ++ or -- whose target names
    the field, directly or through a member of it
    (cluster.faults.seed = ... sets ClusterConfig::faults and
    FaultPlan::seed);
  - a mutating call on the field or a member of it
    (cfg.machines.push_back(...), cfg.gpu.emplace(...));
  - a designated initializer (PlacementSpec{.minReplicas = 2}).

An assignment whose right-hand side only reads another unset field
(spec.load.qps = cfg.qps) forwards that field's default and does not
count. Positional aggregate initializers are not seen; a field set
only that way needs an allow-list entry.

The owner of a written field is taken from the declared type of the
expression before it: the variable's declaration (in the file, or in
the header of the same name for class members), followed through the
struct fields, std::optional and container elements. When that type
cannot be told (auto from a call, a function result), the write counts
for every listed struct with a field of that name; when it is a type
that is not listed, the write counts for none. So a name shared with
an unrelated struct can hide an unset field, but never flags a set
one.

Each line of tools/unset_settings.allow is "Struct::field  # reason".
The script exits 1 if an unset field is not on the list, if an entry
has no reason, or if an entry is stale: the field is set now, or no
longer exists.

CpuCostParams and GpuCostParams are out of scope: their fields are
calibration constants, not settings.

Usage: tools/unset_settings.py
Stdlib only; run from anywhere.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ["bench", "examples", "perfbench", "src"]
ALLOW = os.path.join(ROOT, "tools", "unset_settings.allow")

STRUCTS = [
    "SimConfig", "SchedulerPolicy", "ClusterConfig", "NetworkConfig",
    "OverloadConfig", "FaultPlan", "HedgeConfig", "LoadSpec",
    "InfraConfig", "PlacementSpec", "TableSetSpec", "ShardingConfig",
    "ScalingPolicySpec", "AutoscaleSpec", "RoutingSpec", "QpsSearchSpec",
    "ClusterQpsSpec", "CapacityPlanSpec", "FleetConfig", "EngineConfig",
]

MUTATORS = {"push_back", "emplace_back", "emplace", "assign", "insert",
            "reset", "resize", "clear", "append", "swap"}
KEYWORDS = {"return", "else", "case", "new", "delete", "throw", "goto",
            "co_return", "typename", "sizeof", "operator"}

IDENT = r"[A-Za-z_]\w*"


def strip_code(text):
    """Blank comments, string and char literals, keeping offsets."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c == '"' or (c == "'" and not text[i - 1:i].isalnum()):
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + " " * (j - i - 1) + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def matching(text, i, open_c, close_c):
    """Index just past the bracket that closes text[i] (an open_c)."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] == open_c:
            depth += 1
        elif text[j] == close_c:
            depth -= 1
            if depth == 0:
                return j + 1
    return len(text)


def base_type(t):
    """The struct a declared type names: no cv, refs, pointers,
    namespaces, std::optional or container wrappers."""
    t = re.sub(r"\b(const|static|constexpr|mutable|struct)\b", " ", t)
    t = t.replace("&", " ").replace("*", " ").strip()
    while True:
        m = re.fullmatch(r"(?:std::)?(?:optional|vector|deque|array|"
                         r"unique_ptr|shared_ptr)\s*<\s*(.*?)\s*(?:,.*)?>",
                         t)
        if not m:
            break
        t = m.group(1).strip()
    return t.split("::")[-1].strip()


def parse_records(code):
    """{name: {field: declared type}} for every struct/class in code."""
    records = {}
    for m in re.finditer(r"\b(?:struct|class)\s+(" + IDENT + r")\s*"
                         r"(?:final\s*)?(?::[^{;]*)?\{", code):
        body_start = m.end() - 1
        body_end = matching(code, body_start, "{", "}")
        body = code[body_start + 1:body_end - 1]
        fields = {}
        stmt = ""
        i = 0
        while i < len(body):
            c = body[i]
            if c == "{":
                j = matching(body, i, "{", "}")
                if "(" in stmt or re.search(r"\b(struct|class|enum|union)\b",
                                            stmt):
                    stmt = ""        # a function body or nested type
                else:
                    stmt += body[i:j]  # a brace initializer
                i = j
                continue
            if c == ";":
                add_field(fields, stmt)
                stmt = ""
            else:
                stmt += c
            i += 1
        records.setdefault(m.group(1), fields)
    return records


def add_field(fields, stmt):
    stmt = re.sub(r"\b(public|private|protected)\s*:", " ", stmt)
    stmt = re.sub(r"\{.*\}", " ", stmt, flags=re.S)
    stmt = stmt.split("=")[0].strip()
    if not stmt or "(" in stmt or "operator" in stmt or re.match(
            r"(static|using|friend|typedef|template|enum)\b", stmt):
        return
    m = re.fullmatch(r"(.+?)\s*\b(" + IDENT + r")\s*(\[[^\]]*\])?", stmt,
                     flags=re.S)
    if m:
        fields[m.group(2)] = m.group(1).strip()


def split_chain(expr):
    """'a.b[i]->c' -> [('a', ''), ('b', '[i]'), ('c', '')]."""
    parts = []
    for m in re.finditer(r"(" + IDENT + r")((?:\s*(?:\[[^\]]*\]|"
                         r"\([^()]*\)))*)", expr):
        parts.append((m.group(1), m.group(2).strip()))
    return parts


class Resolver:
    """Declared types of the names a file uses."""

    def __init__(self, records, code, header_code):
        self.records = records
        self.code = code
        self.header = header_code
        self.decls = {}

    def declarations(self, name):
        """[(offset, type, initializer)] of @name's declarations in
        the file, then the first in the paired header (offset -1)."""
        if name not in self.decls:
            decl = re.compile(
                r"((?:const\s+)?(?:" + IDENT + r"::)*" + IDENT +
                r"(?:\s*<[^;(){}]*?>)?)\s*(?:const\s*)?[&*]*\s*\b" +
                re.escape(name) + r"\b\s*(=|:|;|,|\)|\{|\[|\()")
            found = []
            for source, offset in ((self.code, None), (self.header, -1)):
                for m in decl.finditer(source):
                    if base_type(m.group(1)) in KEYWORDS:
                        continue
                    init = ""
                    if m.group(2) == "=":
                        end = source.find(";", m.end())
                        init = source[m.end():end].strip()
                    found.append((m.start() if offset is None else offset,
                                  m.group(1), init))
                    if offset is not None:
                        break
            self.decls[name] = found
        return self.decls[name]

    def declared(self, name, pos):
        """(type, initializer, offset) of variable @name's declaration
        nearest before @pos, else in the paired header; or None."""
        found = self.declarations(name)
        before = [d for d in found if 0 <= d[0] < pos]
        if before:
            offset, decl_type, init = before[-1]
        else:
            header = [d for d in found if d[0] < 0]
            if not header:
                return None
            offset, decl_type, init = header[0]
        return decl_type, init, max(offset, 0)

    def resolve(self, chain, pos, depth=0):
        """Struct type of the member chain, '' if unknown."""
        if not chain or depth > 4:
            return ""
        head, suffix = chain[0]
        if "(" in suffix:
            return ""
        found = self.declared(head, pos)
        if found is None:
            return ""
        decl_type, init, at = found
        t = base_type(decl_type)
        if t == "auto":
            parts = split_chain(init) if re.fullmatch(
                r"[\w\s.\[\]>-]+", init) else []
            t = self.resolve(parts, at, depth + 1) if parts else ""
        for name, suffix in chain[1:]:
            if "(" in suffix or t not in self.records:
                return ""
            field_type = self.records[t].get(name)
            if field_type is None:
                return ""
            t = base_type(field_type)
        return t


CHAIN = re.compile(
    r"(?<![\w.>])(" + IDENT + r"(?:\s*\[[^\]]*\])*(?:\s*(?:\.|->)\s*" +
    IDENT + r"(?:\s*\[[^\]]*\])*)+)")
ASSIGN = re.compile(r"\s*(=(?!=)|\+=|-=|\*=|/=|\|=|&=|\+\+|--)")
DESIGNATED = re.compile(r"[{,]\s*\.(" + IDENT + r")\s*=(?!=)")


def writes_in(path, code, header_code, records, listed):
    """Yield (struct, field, source) for each write in code; source is
    (struct, field) of a forwarded read, else None."""
    res = Resolver(records, code, header_code)

    def owners(recv_chain, field, pos):
        t = res.resolve(recv_chain, pos)
        if t:
            return [t] if t in listed and field in records[t] else []
        return [s for s in listed if field in records[s]]

    for m in CHAIN.finditer(code):
        chain = split_chain(m.group(1))
        after = code[m.end():m.end() + 3]
        before = code[max(0, m.start() - 2):m.start()]
        last = len(chain)
        if re.match(r"\s*\(", after) and chain[-1][0] in MUTATORS:
            last = len(chain) - 1      # a.f.push_back(...) writes f
        elif not (ASSIGN.match(code, m.end()) or before in ("++", "--")):
            continue
        source = None
        a = ASSIGN.match(code, m.end())
        if a and a.group(1) == "=":
            end = code.find(";", a.end())
            rhs = code[a.end():end].strip()
            if CHAIN.fullmatch(rhs):
                src = split_chain(rhs)
                owner = owners(src[:-1], src[-1][0], m.start())
                if len(owner) == 1:
                    source = (owner[0], src[-1][0])
        for k in range(1, last):
            for s in owners(chain[:k], chain[k][0], m.start()):
                yield s, chain[k][0], source if k == last - 1 else None

    for m in DESIGNATED.finditer(code):
        # The braced list's type: the name just before its '{'.
        depth, i = 0, m.start()
        while i >= 0:
            if code[i] == "}":
                depth += 1
            elif code[i] == "{":
                if depth == 0:
                    break
                depth -= 1
            i -= 1
        t = re.search(r"(" + IDENT + r")\s*$", code[max(0, i - 80):i])
        field = m.group(1)
        if t and t.group(1) in records:
            if t.group(1) in listed and field in records[t.group(1)]:
                yield t.group(1), field, None
        else:
            for s in listed:
                if field in records[s]:
                    yield s, field, None


def main():
    files = []
    for d in SCAN_DIRS:
        for dirpath, _, names in os.walk(os.path.join(ROOT, d)):
            files += [os.path.join(dirpath, n) for n in sorted(names)
                      if n.endswith((".hh", ".cc", ".cpp"))]
    code = {f: strip_code(open(f, encoding="utf-8").read()) for f in files}

    records, home = {}, {}
    for f in files:
        for name, fields in parse_records(code[f]).items():
            records.setdefault(name, fields)
            if f.endswith(".hh") and f.startswith(os.path.join(ROOT, "src")):
                home.setdefault(name, f)
    missing = [s for s in STRUCTS if s not in home]
    if missing:
        sys.exit("unset_settings: no definition of " + ", ".join(missing))
    listed = set(STRUCTS)

    writes = []    # (struct, field, forwarded source or None)
    for f in files:
        header = os.path.splitext(f)[0] + ".hh"
        header_code = code.get(header, "") if header != f else ""
        for s, field, source in writes_in(f, code[f], header_code,
                                          records, listed):
            if home[s] != f:
                writes.append((s, field, source))

    # A forwarding write sets its field only once its source is set.
    is_set = set()
    changed = True
    while changed:
        changed = False
        for s, field, source in writes:
            if (s, field) not in is_set and (source is None or
                                             source in is_set):
                is_set.add((s, field))
                changed = True

    unset = []
    print("settings no shipped code sets:")
    for s in STRUCTS:
        fields = records[s]
        mine = [f for f in fields if (s, f) not in is_set]
        print(f"  {s}: {len(fields)} fields, {len(mine)} unset")
        unset += [f"{s}::{f}" for f in mine]
    for name in unset:
        print(f"    {name}")

    entries, no_reason = {}, []
    for line in open(ALLOW, encoding="utf-8"):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        name, sep, reason = line.partition("  # ")
        entries[name.strip()] = reason.strip()
        if not sep or not reason.strip():
            no_reason.append(name.strip())
    new = [n for n in unset if n not in entries]
    stale = [n for n in entries if n not in unset]

    status = 0
    for title, names in (("allow-list entries without a reason:", no_reason),
                         ("unset and not on tools/unset_settings.allow:",
                          new),
                         ("stale tools/unset_settings.allow entries "
                          "(set now, or gone):", stale)):
        if names:
            print(title, file=sys.stderr)
            for n in names:
                print("  " + n, file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

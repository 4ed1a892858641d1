#!/usr/bin/env python3
"""Checks the value half of the reachability rule (DESIGN.md §17).

Usage:
    tools/check_options.py

Lists every field of each struct under src/ whose name ends in Options,
Config or Spec. A field stays only while a program sets or reads it: some
file under bench/, examples/ or e2ebench/runner/ must name it as `.field`
(a member access or a designated initializer). A field no program names is
left at its default by every run the repository reproduces, so it should be
a named constant at its use instead. tools/options_allowlist.txt lists the
fields kept anyway, one per line as `Struct::field  # reason`.

Fails when a field is unnamed and not allowlisted, and when an allowlist line
names a field that no longer exists or that a program now names.

Blind spot: a field counts as named when any program names a field of that
name, in whatever struct. `.enabled` in a bench keeps every `enabled` field.

Exit status: 0 clean, 1 the rule is broken.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "tools" / "options_allowlist.txt"
PROGRAM_DIRS = ("bench", "examples", "e2ebench/runner")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
STRUCT = re.compile(r"\bstruct\s+(\w*(?:Options|Config|Spec))\s*(?:final\s*)?\{")
SKIP_PREFIXES = ("static ", "using ", "friend ", "enum ", "struct ", "class ",
                 "typedef ", "template")


def strip_comments(text):
    """Drops // and /* */ comments, keeping string and char literals."""
    pattern = re.compile(r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])*\'',
                         re.DOTALL)
    return pattern.sub(lambda m: " " if m.group(0)[0] == "/" else m.group(0), text)


def strip_templates(text):
    """Removes template argument lists, innermost first."""
    while True:
        stripped = re.sub(r"<[^<>]*>", "", text)
        if stripped == text:
            return text
        text = stripped


def struct_body(text, open_brace):
    """Returns the text between the brace at `open_brace` and its match."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace + 1:i]
    raise ValueError("unbalanced braces")


def statements(body):
    """Splits a struct body into its top-level member declarations."""
    out, current, depth = [], [], 0
    for ch in body:
        current.append(ch)
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            # A member function body or nested type ends its declaration.
            if depth == 0 and not "".join(current).lstrip().startswith(("enum", "struct")):
                head = "".join(current)
                if ")" in head.split("{", 1)[0] and "=" not in head.split("{", 1)[0]:
                    out.append(head)
                    current = []
        elif ch == ";" and depth == 0:
            out.append("".join(current))
            current = []
    return [re.sub(r"\s+", " ", s).strip() for s in out]


def field_name(statement):
    """The field a declaration statement declares, or None."""
    statement = re.sub(r"^(public|private|protected)\s*:\s*", "", statement)
    if not statement or statement.startswith(SKIP_PREFIXES):
        return None
    declarator = strip_templates(statement)
    declarator = re.split(r"=", declarator, maxsplit=1)[0]
    declarator = re.sub(r"\{.*\}\s*;?$", "", declarator).rstrip(" ;")
    if "(" in declarator or "operator" in declarator:
        return None
    match = re.search(r"(\w+)\s*(\[[^\]]*\])?$", declarator)
    return match.group(1) if match else None


def enclosing_type(text, position):
    """`Outer::` when the struct at `position` is nested in a class, else ''."""
    depth = 0
    for i in range(position - 1, -1, -1):
        if text[i] == "}":
            depth += 1
        elif text[i] == "{":
            if depth == 0:
                outer = re.search(r"\b(?:class|struct)\s+(\w+)[^;{}]*$", text[:i])
                return outer.group(1) + "::" if outer else ""
            depth -= 1
    return ""


def collect_fields():
    fields = []  # (struct, field, source path)
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES:
            continue
        text = strip_comments(path.read_text(encoding="utf-8"))
        for match in STRUCT.finditer(text):
            struct = enclosing_type(text, match.start()) + match.group(1)
            for statement in statements(struct_body(text, match.end() - 1)):
                name = field_name(statement)
                if name is not None:
                    fields.append((struct, name, path.relative_to(ROOT)))
    return fields


def program_text():
    chunks = []
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES:
                chunks.append(strip_comments(path.read_text(encoding="utf-8")))
    return "\n".join(chunks)


def read_allowlist():
    """Returns the allowlisted `Struct::field` keys and the malformed-line count."""
    entries, bad = set(), 0
    for number, line in enumerate(ALLOWLIST.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        key, _, reason = line.partition("#")
        key = key.strip()
        if not reason.strip() or not re.fullmatch(r"(\w+::)+\w+", key):
            print(f"BAD LINE {ALLOWLIST.name}:{number} (want 'Struct::field  # reason')  {line}")
            bad += 1
        else:
            entries.add(key)
    return entries, bad


def main():
    fields = collect_fields()
    programs = program_text()
    allowlist, bad = read_allowlist()
    status = 1 if bad else 0
    defined = set()
    named = 0
    for struct, field, path in fields:
        key = f"{struct}::{field}"
        defined.add(key)
        is_named = re.search(r"\.\s*" + field + r"\b", programs) is not None
        named += is_named
        if is_named and key in allowlist:
            print(f"STALE (a program names it)  {key}")
            status = 1
        elif not is_named and key not in allowlist:
            print(f"UNSET  {key}  ({path})")
            status = 1
    for key in sorted(allowlist - defined):
        print(f"STALE (no such field)  {key}")
        status = 1
    print(f"check_options: {len(fields)} fields, {named} named by programs, "
          f"{len(allowlist)} allowlisted")
    return status


if __name__ == "__main__":
    sys.exit(main())

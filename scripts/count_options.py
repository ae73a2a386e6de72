#!/usr/bin/env python3
"""Counts the settable options of the code base.

An option is a data member of a struct or class, declared in a header under
src/, whose name ends in `Options` or `Config` (MatchEngineOptions,
QMatchConfig, a nested `Options`, ...). Member functions, static members,
type aliases and nested types are not options.

Usage: scripts/count_options.py [<git rev>]
  With a rev, counts the headers as committed there; without one, the
  working tree. Prints one integer. Run from the repository root.
"""

import pathlib
import re
import subprocess
import sys

HEAD = re.compile(
    r"\b(?:struct|class)\s+\w*(?:Options|Config)\s*(?:final\s*)?"
    r"(?::[^{;]*)?\{")
FUNCTION_BODY = re.compile(r"(\)|\bconst|\bnoexcept|\boverride|\bfinal)\s*$")
NOT_A_MEMBER = re.compile(
    r"(using|friend|static|typedef|enum|struct|class|template)\b")


def headers(rev):
    if not rev:
        for path in sorted(pathlib.Path("src").rglob("*.h")):
            yield path.read_text()
        return
    names = subprocess.run(
        ["git", "ls-tree", "-r", "--name-only", rev, "--", "src"],
        capture_output=True, text=True, check=True).stdout.split()
    for name in names:
        if name.endswith(".h"):
            yield subprocess.run(["git", "show", f"{rev}:{name}"],
                                 capture_output=True, text=True,
                                 check=True).stdout


def strip(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    text = re.sub(r"//[^\n]*", "", text)
    return re.sub(r'"(?:\\.|[^"\\])*"', '""', text)


def is_member(statement):
    statement = re.sub(r"\b(public|private|protected)\s*:", "",
                       statement).strip()
    if not statement or NOT_A_MEMBER.match(statement):
        return 0
    declarator = re.split(r"[={]", statement, maxsplit=1)[0]
    while re.search(r"<[^<>]*>", declarator):  # std::function<void(int)>
        declarator = re.sub(r"<[^<>]*>", "", declarator)
    return 0 if "(" in declarator or "operator" in declarator else 1


def count_body(text, start):
    """Members of the body opening just before `start`."""
    members, statement, depth, in_function = 0, "", 0, False
    for ch in text[start:]:
        if depth:
            depth += {"{": 1, "}": -1}.get(ch, 0)
            if depth == 0 and in_function:
                statement = ""  # an inline function body ends its declaration
            continue
        if ch == "{":
            depth = 1
            in_function = bool(FUNCTION_BODY.search(statement))
            if not in_function:
                statement += "{}"  # a brace initializer
        elif ch == "}":
            return members  # the body's own closing brace
        elif ch == ";":
            members += is_member(statement)
            statement = ""
        else:
            statement += ch
    return members


def main():
    rev = sys.argv[1] if len(sys.argv) > 1 else ""
    total = 0
    for text in headers(rev):
        text = strip(text)
        total += sum(count_body(text, m.end()) for m in HEAD.finditer(text))
    print(total)


if __name__ == "__main__":
    main()

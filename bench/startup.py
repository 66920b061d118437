"""Fresh-interpreter start-up: the setup_s metric and the startup layer."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

# the first import after a checkout compiles bytecode and fills the page
# cache; users pay that once, so it is run untimed
WARM_STARTS = 1


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(code: str, env: dict, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, check=True, timeout=60)


class SetupSampler:
    """setup_s: median wall time of fresh interpreters importing `module`.

    The starts are taken between ops, spread evenly over the measured
    seconds, so they see the same host conditions as the ops do."""

    def __init__(self, module: str, env: dict, starts: int, seconds: float):
        self.code = f"import {module}"
        self.env = env
        self.starts = starts
        self.seconds = seconds
        self.times: list[float] = []
        for _ in range(WARM_STARTS):
            _run(self.code, env)

    def _start(self) -> None:
        t0 = time.perf_counter()
        _run(self.code, self.env)
        self.times.append(time.perf_counter() - t0)

    def __call__(self, busy: float) -> None:
        """Called before each op with the ops' time so far."""
        due = self.seconds * len(self.times) / self.starts
        if len(self.times) < self.starts and busy >= due:
            self._start()

    def median(self) -> float:
        while len(self.times) < self.starts:
            self._start()
        return statistics.median(self.times)


def parse_importtime(text: str) -> list:
    """`-X importtime` lines -> [(name, depth, self_us)] in print order.

    Children print before their parent, one indent step deeper."""
    out = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        head, _, name_col = line.split("|", 2)
        name_col = name_col[1:]
        name = name_col.lstrip(" ")
        depth = (len(name_col) - len(name)) // 2
        out.append((name.rstrip(), depth, int(head.split(":", 1)[1])))
    return out


OWNERS = ("numpy", "scipy", "fracfilt")


def attribute(entries: list) -> dict:
    """Self time per owning package, in seconds.

    A module belongs to the nearest of itself and its importers that is
    part of numpy, scipy or fracfilt, so the standard-library modules
    numpy pulls in count as numpy's import."""
    # rebuild the import tree from post-order (children first)
    nodes = []
    pending: list = []
    for name, depth, self_us in entries:
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop()[1])
        node = (name, self_us, children)
        nodes.append(node)
        pending.append((depth, node))
    totals = dict.fromkeys(OWNERS + ("other",), 0.0)

    def walk(node, owner):
        name, self_us, children = node
        top = name.split(".", 1)[0]
        owner = top if top in OWNERS else owner
        totals[owner] += self_us / 1e6
        for child in children:
            walk(child, owner)

    for _, root in pending:
        walk(root, "other")
    return totals


def startup_layer(module: str, env: dict, starts: int) -> dict:
    """Median over `starts` fresh interpreters of the startup.* metrics."""
    samples = []
    for _ in range(WARM_STARTS):
        _run("pass", env)
    for _ in range(starts):
        t0 = time.perf_counter()
        _run("pass", env)
        bare = time.perf_counter() - t0
        proc = _run(f"import {module}", env, "-X", "importtime")
        entries = parse_importtime(proc.stderr)
        owned = attribute(entries)
        samples.append({
            "startup.interpreter_s": bare,
            "startup.numpy_import_s": owned["numpy"],
            "startup.scipy_import_s": owned["scipy"],
            "startup.fracfilt_import_s": owned["fracfilt"],
            "startup.scipy_modules": sum(
                1 for name, _, _ in entries if name.split(".", 1)[0] == "scipy"),
        })
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}

"""The write policy: every file a command writes goes through ``errors.atomic_write``.

A fault-injection sweep fails each file that ``synth-data``, ``train``,
``extract`` and ``eval`` write with ENOSPC, at its first write call and at
its last, and checks the command exits 3 and leaves each output absent or
whole. A lint scans ``src/dtcf`` for any other way of opening a file for
writing, and two tests write through a symlink and into a FIFO.
"""

import ast
import builtins
import errno
import os
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

import dtcf
from dtcf.cli import main
from dtcf.metrics import export_embeddings

SRC = Path(dtcf.__file__).parent

TINY_KEYS = """
widths = 2,4,8,16
blocks = 1,1,1,1
emb_dim = 32
asp_hidden = 8
batch_size = 2
crop = 40
steps = 2
step_size = 100
time_mask_max = 4
freq_mask_max = 4
"""


# ---------------------------------------------------------------- fault injection

class _Counted:
    """A file open for writing whose write calls are counted under ``key``; from
    the call that ``faults.fail`` names on, each raises ENOSPC, as a disk that fills up would."""

    def __init__(self, f, faults, key):
        self._f, self._faults, self._key = f, faults, key

    def write(self, data):
        writes, (key, at) = self._faults.writes, self._faults.fail
        writes[self._key] = writes.get(self._key, 0) + 1
        if self._key == key and writes[key] >= at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._f.write(data)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


class _Faults:
    """``builtins.open`` for every module, counting the write calls to each file
    under ``root`` opened for writing, keyed by its path under ``root`` (without a
    ``.tmp`` suffix), and failing the file and call that ``fail`` names."""

    def __init__(self, monkeypatch):
        self.root, self.writes, self.fail = None, {}, (None, 0)
        real_open = builtins.open

        def faulty_open(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            if not set(mode) & set("wax+") or not isinstance(file, (str, os.PathLike)):
                return f
            path = Path(file).resolve()
            if self.root not in path.parents:
                return f
            key = path.relative_to(self.root).as_posix().removesuffix(".tmp")
            return _Counted(f, self, key)

        monkeypatch.setattr(builtins, "open", faulty_open)

    def run(self, argv, root, fail=(None, 0)):
        """The exit code of ``dtcf argv`` writing under ``root``, failing ``fail``:
        (file key, write call)."""
        self.root, self.writes, self.fail = root.resolve(), {}, fail
        return main(argv)


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 2-speaker corpus, a tiny config, the checkpoint it trains and the embeddings
    that checkpoint extracts."""
    base = tmp_path_factory.mktemp("inputs")
    corpus = base / "corpus"
    assert main(["synth-data", "--speakers", "2", "--utts", "4", "--seed", "3",
                 "--out", str(corpus)]) == 0
    config = base / "tiny.cfg"
    config.write_text(TINY_KEYS + f"manifest = {corpus / 'train.csv'}\n")
    assert main(["train", "--config", str(config), "--out", str(base / "run")]) == 0
    emb = base / "emb.csv"
    assert main(["extract", "--ckpt", str(base / "run" / "checkpoint.bin"),
                 "--manifest", str(corpus / "manifest.csv"), "--out", str(emb)]) == 0
    return {"corpus": corpus, "config": config, "ckpt": base / "run" / "checkpoint.bin",
            "emb": emb}


COMMANDS = {
    "synth-data": lambda i, out: ["synth-data", "--speakers", "2", "--utts", "4",
                                  "--seed", "0", "--out", str(out)],
    "train": lambda i, out: ["train", "--config", str(i["config"]), "--out", str(out)],
    "extract": lambda i, out: ["extract", "--ckpt", str(i["ckpt"]), "--manifest",
                               str(i["corpus"] / "manifest.csv"),
                               "--out", str(out / "embeddings.csv")],
    "eval": lambda i, out: ["eval", "--emb", str(i["emb"]), "--trials",
                            str(i["corpus"] / "trials.txt"), "--scores", str(out / "scores.csv")],
}


def _names_only_present_wavs(root: Path) -> bool:
    """Whether every WAV file a manifest or the trial list of a corpus names exists."""
    named = set()
    for name in ("manifest.csv", "train.csv"):
        if (root / name).exists():
            named |= {line.split(",")[2] for line in (root / name).read_text().splitlines()[1:]}
    if (root / "trials.txt").exists():
        named |= {f"wav/{utt}.wav" for line in (root / "trials.txt").read_text().splitlines()
                  for utt in line.split()[:2]}
    return all((root / rel).is_file() for rel in named)


@pytest.mark.parametrize("into", ["previous", "fresh"])
@pytest.mark.parametrize("command", COMMANDS)
def test_a_failed_write_leaves_each_output_absent_or_whole(command, into, inputs, tmp_path,
                                                           monkeypatch, capsys):
    argv = COMMANDS[command]
    faults = _Faults(monkeypatch)
    clean = tmp_path / "clean"
    clean.mkdir()
    assert faults.run(argv(inputs, clean), clean) == 0
    writes, whole = dict(faults.writes), _files(clean)
    assert writes and set(writes) == set(whole)
    for n, (key, count) in enumerate(sorted(writes.items())):
        for at in sorted({1, count}):
            if into == "previous":
                root = clean
            else:
                root = tmp_path / f"fresh{n}_{at}"
                root.mkdir()
            capsys.readouterr()
            assert faults.run(argv(inputs, root), root, fail=(key, at)) == 3, (key, at)
            assert "No space left on device" in capsys.readouterr().err
            left = _files(root)
            assert not [f for f in left if f.endswith(".tmp")], (key, at)
            assert key not in left or into == "previous"
            assert all(left[f] == whole.get(f) for f in left), (key, at)
            if into == "previous":
                assert left == whole, (key, at)
            if command == "synth-data":
                assert _names_only_present_wavs(root), (key, at)


# ---------------------------------------------------------------- targets that are not plain files

@pytest.fixture
def small_eval(tmp_path):
    """argv of a `dtcf eval` over 4 random embeddings and 3 trials, less its --scores."""
    r = np.random.default_rng(0)
    export_embeddings({f"u{i}": (f"s{i // 2}", r.normal(size=4)) for i in range(4)},
                      tmp_path / "emb.csv")
    (tmp_path / "trials.txt").write_text("u0 u1 target\nu0 u2 nontarget\nu2 u3 target\n")
    return ["eval", "--emb", str(tmp_path / "emb.csv"), "--trials", str(tmp_path / "trials.txt")]


def test_a_symlinked_output_keeps_its_link(small_eval, tmp_path):
    plain = tmp_path / "plain.csv"
    assert main(small_eval + ["--scores", str(plain)]) == 0
    (tmp_path / "data").mkdir()
    real = tmp_path / "data" / "scores.csv"
    real.write_text("old\n")
    link = tmp_path / "scores.csv"
    link.symlink_to(Path("data") / "scores.csv")
    assert main(small_eval + ["--scores", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(Path("data") / "scores.csv")
    assert real.read_bytes() == plain.read_bytes()
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == ["scores.csv"]


def test_a_fifo_output_is_written_in_place(small_eval, tmp_path):
    plain = tmp_path / "plain.csv"
    assert main(small_eval + ["--scores", str(plain)]) == 0
    fifo = tmp_path / "scores.fifo"
    os.mkfifo(fifo)
    got = []

    def drain():
        with open(fifo, "rb") as f:
            got.append(f.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    try:
        assert main(small_eval + ["--scores", str(fifo)]) == 0
        reader.join(timeout=30)
    finally:
        if reader.is_alive():      # the command never opened the FIFO: let the reader go
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=30)
    assert got == [plain.read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []


# ---------------------------------------------------------------- one writer

WRITE_MODE = set("wax+")
WRITERS = {"write_text", "write_bytes", "tofile"}
NUMPY = {"np", "numpy"}
OPENERS = {"builtins", "io", "wave", "gzip", "bz2", "lzma", "codecs"}


def _write_calls(tree: ast.AST) -> list[int]:
    """Line numbers of the calls in ``tree`` that open or write a file, outside
    the body of ``atomic_write`` and other than a ``wave.open`` of a file that a
    ``with atomic_write(...) as`` binds."""
    found, given = [], set()
    skip = {id(n) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and fn.name == "atomic_write" for n in ast.walk(fn)}
    for node in ast.walk(tree):
        if isinstance(node, ast.withitem) and isinstance(node.optional_vars, ast.Name):
            call = node.context_expr
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "atomic_write":
                given.add(node.optional_vars.id)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skip:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in WRITERS or (_on(func, NUMPY) and name.startswith("save")):
            found.append(node.lineno)
        elif name == "open" and _opens_for_writing(node):
            if not (_on(func, {"wave"}) and getattr(node.args[0], "id", None) in given):
                found.append(node.lineno)
    return found


def _on(func, modules) -> bool:
    """Whether ``func`` is an attribute of one of the ``modules``, by name."""
    return isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in modules


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether an ``open`` call's mode may write: a mode that is not a string constant may.

    ``open(file, mode)`` and a module's ``open`` take the mode second, ``Path.open`` first.
    """
    pos = 0 if isinstance(call.func, ast.Attribute) and not _on(call.func, OPENERS) else 1
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[pos] if len(call.args) > pos else None)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return bool(set(mode.value) & WRITE_MODE)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_atomic_write_opens_a_file_for_writing(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert _write_calls(tree) == [], f"{module}: write outside errors.atomic_write"


@pytest.mark.parametrize("code", [
    'open(p, "w")', 'open(p, "a", encoding="utf-8")', 'open(p, mode="r+b")',
    'open(p, "xb")', 'open(p, m)', 'Path(p).open("w")', 'p.open(mode="a")',
    'wave.open(str(p), "wb")', 'p.write_text("x")', 'p.write_bytes(b"")',
    'np.save(p, a)', 'np.savez(p, a=a)', 'np.savetxt(p, a)', 'a.tofile(p)',
    'with atomic_write(p, "wb") as f, wave.open(g, "wb") as w: pass',
])
def test_the_lint_finds_each_way_to_write(code):
    assert _write_calls(ast.parse(code)) == [1]


@pytest.mark.parametrize("code", [
    'open(p)', 'open(p, "rb")', 'open(p, encoding="utf-8", newline="")', 'p.open()',
    'wave.open(str(p), "rb")', 'np.load(p)',
    'with atomic_write(p, "wb") as f, wave.open(f, "wb") as w: pass',
    'def atomic_write(path, mode):\n    with open(path, mode) as f: pass',
])
def test_the_lint_passes_reads_and_the_helper(code):
    assert _write_calls(ast.parse(code)) == []

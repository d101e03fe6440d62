"""The output tree: one run's files take the output directory's place whole.

The output directory holds exactly one run's files, or is left as it
was.  Each region's files are written as soon as the region is
analysed, into a sibling staging directory `.<name>.oceanmine-staging`;
the report files go last.  The staging directory then replaces the
output directory: the old tree is renamed aside to `.<name>.oceanmine-old`
and removed.  Before any work, the output directory must hold nothing
but regular files with output names, and let this run unlink them, so
no path that oceanmine did not name is ever replaced or removed, and no
removal fails after the swap.  A staging or aside directory left by a
killed run is checked the same way and then removed; a refused one is
left alone.  A run failing after these checks removes the staging
directory.  One run at a time owns these names: a run holds an flock on
`.<name>.oceanmine-lock` from before its first check until after the
swap, and a run that finds it held fails at once, touching nothing.
oceanmine needs a POSIX system: flock, fork, O_DIRECTORY and dir_fd.

Creating a file costs the kernel far more than filling one, and two
processes creating files in one directory take as long as one.  So
while the regions are analysed, a forked helper creates the run's
files in the staging directory, empty and in writing order; a write
fills the file in place, or creates it when the helper is behind.
The helper never writes, and it is killed and reaped before the
staging directory is renamed or removed, so the tree depends on the
writes alone.
"""

import contextlib
import errno
import fcntl
import os
import re
import signal
import stat
from pathlib import Path
from typing import IO, Iterator

REPORT_JSONL, REPORT_TXT = "report.jsonl", "report.txt"
REPORT_FILES = (REPORT_JSONL, REPORT_TXT)
_REGION_KINDS = ("records", "rules", "index", "confidence")  # the last two are plots


def region_files(region: str, write_plots: bool) -> list[str]:
    """The names a run writes for one region, in writing order."""
    kinds = _REGION_KINDS if write_plots else _REGION_KINDS[:2]
    return [f"{kind}_{region}.csv" for kind in kinds]


# The names a run writes, and so the only names it replaces or removes.
_OUTPUT_NAME = re.compile(
    "|".join([rf"(?:{'|'.join(_REGION_KINDS)})_.*\.csv", *map(re.escape, REPORT_FILES)])
)


def _outputs_in(directory: Path, remove: bool = False) -> bool:
    """Whether an output tree is at directory; False when nothing is.

    Raises OSError unless directory is a directory, not a symlink, that
    holds only regular files with output names and that this process may
    unlink from: anything else is not oceanmine's to replace or remove.
    With remove, the names are then unlinked through the fd they were
    listed through, so nothing put in the directory's place meanwhile is
    reached, and the directory goes.
    """
    try:
        if stat.S_ISLNK(os.lstat(directory).st_mode):
            raise OSError(errno.ELOOP, "output directory is a symlink", str(directory))
    except FileNotFoundError:
        return False
    # Refuses a non-directory, and a symlink put in place since the lstat.
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW)
    try:
        if not os.access(".", os.W_OK | os.X_OK, dir_fd=fd):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES), str(directory))
        names = []
        with os.scandir(fd) as entries:
            for entry in entries:
                path = os.path.join(directory, entry.name)
                # A symlink could point outside the directory.
                if not entry.is_file(follow_symlinks=False):
                    code = errno.EISDIR if entry.is_dir(follow_symlinks=False) else errno.EEXIST
                    raise OSError(code, os.strerror(code), path)
                if not _OUTPUT_NAME.fullmatch(entry.name):
                    raise OSError(errno.EEXIST, "not an oceanmine output", path)
                names.append(entry.name)
        if remove:
            for name in names:
                try:
                    os.unlink(name, dir_fd=fd)
                except OSError as e:  # which names the file without its directory
                    raise OSError(e.errno, e.strerror, os.path.join(directory, name)) from None
            os.rmdir(directory)
    finally:
        os.close(fd)
    return True


def _swap(staging: Path, out_dir: Path, aside: Path) -> None:
    """Put the staged tree in out_dir's place and remove the old tree."""
    had_old = _outputs_in(out_dir)
    if had_old:
        os.rename(out_dir, aside)
    try:
        os.rename(staging, out_dir)
    except OSError:
        if had_old:
            os.rename(aside, out_dir)
        raise
    _outputs_in(aside, remove=True)


@contextlib.contextmanager
def _claimed(out_dir: Path) -> Iterator[int]:
    """Make out_dir's missing parents, and hold out_dir's lock meanwhile.

    Yields the fd of an flock on the sibling file `.<name>.oceanmine-lock`.
    While another run holds it, raises OSError naming out_dir and leaves
    the file alone; else the file goes on leaving, and if anything
    failed, so do the parents made here (rmdir keeps a filled one).
    """
    created = []  # deepest first
    parent = out_dir.parent
    while not os.path.lexists(parent):
        created.append(parent)
        parent = parent.parent
    lock_path = out_dir.with_name(f".{out_dir.name}.oceanmine-lock")
    lock = None  # an fd on the file at lock_path, which is then this run's
    try:
        try:
            if created:
                os.makedirs(created[0], exist_ok=True)
            lock = os.open(lock_path, os.O_RDWR | os.O_CREAT | os.O_NOFOLLOW, 0o666)
            try:
                fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
                # A run removes the file before it unlocks: a lock taken
                # on a removed file locks nothing.
                held = os.path.samestat(os.fstat(lock), os.lstat(lock_path))
            except (BlockingIOError, FileNotFoundError):
                held = False
            except OSError as e:  # flock names no file
                raise OSError(e.errno, e.strerror, str(lock_path)) from None
            if not held:  # the file is the holder's to remove
                os.close(lock)
                lock = None
                busy = "another run is writing this output directory"
                raise OSError(errno.EBUSY, busy, str(out_dir))
            yield lock
        finally:
            if lock is not None:
                with contextlib.suppress(OSError):
                    os.unlink(lock_path)
                os.close(lock)
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def _single_threaded() -> bool:
    """Whether this process has one thread, counted as os.fork counts them."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        import threading

        return threading.active_count() == 1


def _create_empty(directory: Path, names: list[str], parent: int) -> None:
    """Create each name in directory as an empty file, unless it exists.

    Never truncates or writes, so a file the parent has written keeps
    its text.  Stops once the parent, whose pid is parent, has exited.
    """
    dir_fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        for name in names:
            if os.getppid() != parent:
                return
            flags = os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW
            os.close(os.open(name, flags, 0o666, dir_fd=dir_fd))
    finally:
        os.close(dir_fd)


def _start_creating(directory: Path, names: list[str], lock: int) -> int | None:
    """Fork a helper that creates names in directory; its pid, or None.

    The helper closes its copy of the fd lock, so that the lock goes
    with the run that holds it.  No helper is started where os.fork
    fails, while other threads run, which a fork could deadlock, or
    while SIGCHLD is ignored, which reaps children before they can be
    killed and waited for.
    """
    if signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN or not _single_threaded():
        return None
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        try:
            os.close(lock)
            _create_empty(directory, names, parent)
        finally:
            os._exit(0)
    return pid


class Staging:
    """The staging directory of one run: made empty, then filled file by file."""

    def __init__(self, directory: Path, lock: int) -> None:
        self.directory, self.lock = directory, lock
        self.helper: int | None = None  # the pid of the file-creating helper

    def start(self, names: list[str]) -> None:
        """Fork a helper creating names, then the report files, in the directory."""
        self.helper = _start_creating(self.directory, [*names, *REPORT_FILES], self.lock)

    def write(self, name: str, text: str) -> None:
        (self.directory / name).write_text(text, encoding="ascii", newline="")

    def stream(self, name: str) -> IO[str]:
        return (self.directory / name).open("w", encoding="ascii", newline="")


@contextlib.contextmanager
def replacing(out_dir: Path) -> Iterator[Staging]:
    """Claim and check out_dir, and yield the staging directory that takes
    its place on a clean exit, and is removed on any exception.
    """
    out_dir = Path(os.path.abspath(out_dir))  # "." has no name or sibling
    if not out_dir.name:
        raise OSError(errno.EBUSY, "cannot replace the root directory", str(out_dir))
    staging = out_dir.with_name(f".{out_dir.name}.oceanmine-staging")
    aside = out_dir.with_name(f".{out_dir.name}.oceanmine-old")
    with _claimed(out_dir) as lock:
        if _outputs_in(out_dir) and os.path.samefile(out_dir, os.curdir):
            # renamed aside, it would leave the caller in a removed directory
            raise OSError(errno.EBUSY, "cannot replace the working directory", str(out_dir))
        for leftover in (staging, aside):  # left by a killed run
            _outputs_in(leftover, remove=True)
        stage = Staging(staging, lock)
        try:
            staging.mkdir()
            try:
                yield stage
            finally:
                if stage.helper is not None:  # kill and reap it: it creates nothing more
                    os.kill(stage.helper, signal.SIGKILL)
                    os.waitpid(stage.helper, 0)
            _swap(staging, out_dir, aside)
        except BaseException:
            with contextlib.suppress(OSError):  # it holds only this run's files
                _outputs_in(staging, remove=True)
            raise

"""The request catalog of the serving harness, for all six subject
apps: read, write-heavy and mixed read/write mixes over boxroom,
countries and rolify (the ``sqldb`` write paths), and read mixes over
pubs, cct and talks.

The differential acceptance bar is *oracle-identical outcomes per
schedule index*: a run on any backend (with or without churn) must
produce, at every index, exactly the outcome a cache-free replay of
the same request produces.  Writes make that non-trivial, so every
recipe obeys a **disjoint-resource discipline**, the serving analog of
real traffic where distinct users touch distinct rows:

* write thunks are *self-contained cycles* (create → read → update →
  destroy) over rows they themselves create, leaving the database
  exactly as they found it;
* cycles write only into dedicated *scratch* containers (a scratch
  folder subtree, freshly created users) that no read thunk ever
  renders, and read thunks touch only seeded rows no write ever
  mutates;
* the only interleaving-dependent value a cycle can observe is its own
  autoincrement id, which :func:`mask_ids` strips from the outcome.

With that discipline every thunk's outcome is deterministic under any
interleaving, and independent of how often it ran before, so
cross-thread interference — a torn row, a stale cached check, a lost
invalidation — surfaces as a *per-index divergence* rather than hiding
inside benign nondeterminism.  The pubs/cct/talks mixes are GETs and
pure computations that never mutate app state.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional

from ..apps import World, all_builders
from ..rtypes import Sym

Thunk = Callable[[], object]

#: serving-specific build knobs per app (trimmed view chrome keeps the
#: per-request CPU realistic for a JSON-ish endpoint rather than a
#: full page render; tests trim further).
DEFAULT_CFG: Dict[str, dict] = {
    "boxroom": {"view_cost": 40},
    "countries": {},
    "rolify": {"view_cost": 40},
    "pubs": {"publications": 12},
    "cct": {"repeats": 1},
    "talks": {},
}

#: the fixed role vocabulary the rolify recipes grant/revoke.  Keeping
#: it closed means ``is_<role>`` methods exist after setup and request
#: threads only *re-annotate* (an invalidation wave per grant — the
#: Fig. 2 pre-contract running under live traffic) instead of racing to
#: define new methods.
ROLIFY_ROLES = ("professor", "student", "grader")

_ID_PATTERN = re.compile(r"/(folders|files|roles|users)/\d+")


def mask_ids(text: str) -> str:
    """Replace resource ids in paths/redirects with ``#`` — the only
    legitimately interleaving-dependent bytes in a write outcome."""
    return _ID_PATTERN.sub(r"/\1/#", text)


def _created_id(response: str, resource: str) -> int:
    match = re.search(rf"/{resource}/(\d+)", response)
    if match is None:
        raise AssertionError(
            f"create response carried no /{resource}/<id>: {response!r}")
    return int(match.group(1))


def build_serving_world(app_name: str, engine=None,
                        cfg: Optional[dict] = None) -> World:
    """Build, seed, and fixture one of the serving subject apps."""
    if app_name not in DEFAULT_CFG:
        raise ValueError(f"no serving recipe for {app_name!r}; "
                         f"pick one of {sorted(DEFAULT_CFG)}")
    knobs = dict(DEFAULT_CFG[app_name])
    knobs.update(cfg or {})
    world = all_builders()[app_name](engine, **knobs)
    world.seed()
    _install_fixtures(world)
    return world


def _install_fixtures(world: World) -> None:
    """Scratch containers and baseline state the recipes rely on."""
    if world.name == "boxroom":
        m = world.extras["models"]
        root = m.Folder.find_by_name("root")
        scratch = m.Folder.create(name="scratch", parent_id=root.id,
                                  owner_id=1)
        scratch2 = m.Folder.create(name="scratch2", parent_id=scratch.id,
                                   owner_id=1)
        world.extras["serving"] = {"scratch": scratch.id,
                                   "scratch2": scratch2.id}
    elif world.name == "rolify":
        m = world.extras["models"]
        users = m.User.all()
        # Baseline grants: the is_<role> methods (and their generated
        # annotations) exist before traffic starts, and the /roles index
        # is deterministic for the read-only scenario.
        for user, role in zip(users, ROLIFY_ROLES):
            user.grant(role)
        world.extras["serving"] = {"user_ids": [u.id for u in users]}
    elif world.name == "countries":
        world.extras["serving"] = {}


# -- read mixes --------------------------------------------------------------


def read_thunks(world: World, *, with_index: bool = False) -> List[Thunk]:
    """Read-only requests over *seeded* rows — deterministic even while
    write cycles run, because cycles only touch scratch containers.

    ``with_index`` adds whole-table index pages (GET /files,
    GET /roles).  Those render every row including in-flight scratch
    rows, so they are only sound in scenarios with no concurrent
    writes (the read-heavy baseline).
    """
    if world.name == "boxroom":
        return _boxroom_reads(world, with_index)
    if world.name == "countries":
        return _countries_reads(world)
    if world.name == "rolify":
        return _rolify_reads(world, with_index)
    if world.name == "pubs":
        return _pubs_reads(world)
    if world.name == "cct":
        return _cct_reads(world)
    if world.name == "talks":
        return _talks_reads(world)
    raise ValueError(f"no serving read mix for {world.name!r}")


def _boxroom_reads(world: World, with_index: bool) -> List[Thunk]:
    app = world.extras["app"]

    def get(path: str) -> Thunk:
        return lambda: app.request("GET", path)

    thunks = [get("/folders")]
    thunks += [get(f"/folders/{fid}") for fid in ("1", "2", "3", "4")]
    thunks += [get("/files/1/2"), get("/files/3/2"), get("/files/5/2")]
    thunks += [
        lambda: app.request("POST", "/session",
                            {"email": "dana@box.example"}),
        lambda: app.request("POST", "/session",
                            {"email": "ghost@box.example"}),
    ]
    if with_index:
        thunks.append(get("/files"))
    return thunks


def _countries_reads(world: World) -> List[Thunk]:
    store = world.extras["state"]["store"]
    return [
        lambda: store.find_by_alpha2("US").summary_line(),
        lambda: store.find_by_alpha2("KE").summary_line(),
        lambda: store.total_population(),
        lambda: len(store.in_region("Europe")),
        lambda: store.currencies_in("Americas"),
        lambda: store.speaking("en"),
        lambda: store.find_by_name("Brazil").currency(),
    ]


def _rolify_reads(world: World, with_index: bool) -> List[Thunk]:
    app = world.extras["app"]
    m = world.extras["models"]
    uids = world.extras["serving"]["user_ids"]
    users = [m.User.find(uid) for uid in uids]
    thunks: List[Thunk] = [
        lambda: users[0].role_summary(),
        lambda: users[1].role_summary(),
        lambda: users[0].is_professor(),
        lambda: users[1].is_student(),
        lambda: users[2].is_grader(),
        lambda: users[2].roles_list(),
    ]
    if with_index:
        thunks.append(lambda: app.request("GET", "/roles"))
    return thunks


def _pubs_reads(world: World) -> List[Thunk]:
    app = world.extras["app"]

    def get(path: str) -> Thunk:
        return lambda: app.request("GET", path)

    thunks = [get("/pubs"), get("/pubs/bibtex"), get("/venues")]
    thunks += [get(f"/pubs/year/{year}")
               for year in ("2008", "2010", "2012")]
    thunks += [get(f"/pubs/{pub_id}") for pub_id in ("1", "3", "7")]
    return thunks


def _cct_reads(world: World) -> List[Thunk]:
    runner = world.extras["state"]["runner"]
    # Runner methods build fresh locals per call (no shared mutable
    # state), so many threads may share one runner.
    return [
        lambda: runner.process_transactions(),
        lambda: runner.count_valid(),
        lambda: runner.summary(),
        lambda: runner.audit_lines(),
    ]


def _talks_reads(world: World) -> List[Thunk]:
    app = world.extras["app"]

    def get(path: str) -> Thunk:
        return lambda: app.request("GET", path)

    thunks = [get("/talks"), get("/talks/upcoming"), get("/lists"),
              get("/users")]
    thunks += [get(f"/talks/{talk_id}") for talk_id in ("1", "2", "5")]
    thunks += [get("/talks/by_owner/1"), get("/users/1/talks"),
               get("/lists/2")]
    return thunks


# -- write cycles ------------------------------------------------------------


def write_thunks(world: World) -> List[Thunk]:
    """Self-contained create/update/destroy cycles (see module doc)."""
    if world.name == "boxroom":
        return _boxroom_writes(world)
    if world.name == "countries":
        return _countries_writes(world)
    if world.name == "rolify":
        return _rolify_writes(world)
    raise ValueError(f"no serving write mix for {world.name!r}")


def _boxroom_writes(world: World) -> List[Thunk]:
    app = world.extras["app"]
    m = world.extras["models"]
    scratch = world.extras["serving"]["scratch"]
    scratch2 = world.extras["serving"]["scratch2"]

    def controller_file_cycle():
        # The full HTTP write path: untrusted-params validation, typed
        # controller actions, model create/update/destroy underneath.
        created = app.request("POST", "/files", {
            "filename": "upload.tmp.bin", "size_bytes": "2048",
            "folder_id": str(scratch), "owner_id": "1"})
        fid = _created_id(created, "files")
        moved = app.request("POST", f"/files/{fid}/move",
                            {"folder_id": str(scratch2)})
        gone = app.request("POST", f"/files/{fid}/destroy", {})
        return (mask_ids(created), mask_ids(moved), mask_ids(gone))

    def controller_folder_cycle():
        created = app.request("POST", "/folders", {
            "name": "burst", "parent_id": str(scratch), "owner_id": "2"})
        fid = _created_id(created, "folders")
        gone = app.request("POST", f"/folders/{fid}/destroy", {})
        return (mask_ids(created), mask_ids(gone))

    def model_file_cycle():
        # The model write path without the controller: checked framework
        # annotations (create/update/destroy) plus checked app methods
        # reading the row back between writes.
        f = m.UserFile.create({Sym("filename"): "cycle.v1.dat",
                               Sym("size_bytes"): 3 * 1048576,
                               Sym("folder_id"): scratch2,
                               Sym("owner_id"): 2})
        first = (f.human_size(), f.extension(), f.location())
        f.update({Sym("size_bytes"): 512})
        second = f.human_size()
        return (first, second, f.destroy())

    def share_cycle():
        f = m.UserFile.create({Sym("filename"): "shared.tmp",
                               Sym("size_bytes"): 1024,
                               Sym("folder_id"): scratch,
                               Sym("owner_id"): 1})
        dana = m.User.find_by_email("dana@box.example")
        s = m.Share.create({Sym("file_id"): f.id, Sym("user_id"): dana.id,
                            Sym("can_edit"): True})
        visible = (f.shared_with(dana), s.editable())
        return (visible, s.destroy(), f.destroy())

    return [controller_file_cycle, controller_folder_cycle,
            model_file_cycle, share_cycle]


def _countries_writes(world: World) -> List[Thunk]:
    # Countries has no database; its "write" profile is the expensive
    # mutation-shaped work the app actually has — rebuilding the store
    # (the paper's load_cache downcast plus per-country generic casts)
    # as a fresh object graph per request.
    lib = world.extras["lib"]

    def rebuild_store():
        store = lib.CountryStore()
        return (store.total_population(), len(store.report()))

    def reload_blob():
        cache = lib.DataStore().load_cache()
        return sorted(cache.keys())[:3]

    return [rebuild_store, reload_blob]


def _rolify_writes(world: World) -> List[Thunk]:
    app = world.extras["app"]
    m = world.extras["models"]

    def model_user_cycle():
        # Fresh user per cycle: sqldb insert/delete under threads, and
        # every grant re-runs the Fig. 2 pre-contract — a generated
        # re-annotation (invalidation wave) from a request thread.
        u = m.User.create({Sym("name"): "Temp",
                           Sym("email"): "temp@umd.example"})
        granted = u.grant("professor")
        summary = u.role_summary()
        revoked = u.revoke("professor")
        return (granted, summary, revoked, u.destroy())

    def controller_role_cycle():
        u = m.User.create({Sym("name"): "Visit",
                           Sym("email"): "visit@umd.example"})
        granted = app.request("POST", f"/roles/{u.id}/grant",
                              {"role": "student"})
        revoked = app.request("POST", f"/roles/{u.id}/revoke",
                              {"role": "student"})
        return (mask_ids(granted), mask_ids(revoked), u.destroy())

    return [model_user_cycle, controller_role_cycle]


# -- mixed schedules ---------------------------------------------------------


def mixed_thunks(world: World, reads_per_write: int = 4) -> List[Thunk]:
    """Interleave index-safe reads with write cycles at the given ratio
    (requests deal round-robin over this list, so the ratio holds per
    worker thread too)."""
    reads = read_thunks(world, with_index=False)
    writes = write_thunks(world)
    mixed: List[Thunk] = []
    ri = 0
    for w in writes:
        for _ in range(reads_per_write):
            mixed.append(reads[ri % len(reads)])
            ri += 1
        mixed.append(w)
    return mixed


def write_heavy_thunks(world: World, writes_per_read: int = 3) -> List[Thunk]:
    """Write-dominant schedule: ``writes_per_read`` cycles per read."""
    reads = read_thunks(world, with_index=False)
    writes = write_thunks(world)
    heavy: List[Thunk] = []
    wi = 0
    for r in reads:
        for _ in range(writes_per_read):
            heavy.append(writes[wi % len(writes)])
            wi += 1
        heavy.append(r)
    return heavy


def scenario_thunks(world: World, mix: str) -> List[Thunk]:
    """The thunk list for a scenario kind: ``read`` | ``write`` |
    ``mixed``."""
    if mix == "read":
        return read_thunks(world, with_index=True)
    if mix == "write":
        return write_heavy_thunks(world)
    if mix == "mixed":
        return mixed_thunks(world)
    raise ValueError(f"unknown mix {mix!r}; "
                     f"expected 'read', 'write', or 'mixed'")

"""Source-level guards on the package, read with `ast`.

- Per-system memo lives in `functools` caches on the functions that
  compute it; no module-level dict cache is left.
- A `.kind ==`/`!=` test belongs only where the algorithm, not the window
  shape, differs between odometers and subshifts; there are 8 such places.
- Every dataclass field is read somewhere in `src/`; a field nothing
  reads is dead data.
- `_DEPTH_CAP` is read only by `group.ladder_sizes`, the one generator
  that bounds every cylinder search; a search with its own bound fails here.
- `_LEVEL_CAP` is read only by `canon.search_levels`, the one level search
  behind `factorize` and `lef_map`.
- In `canon` only `PermutationForm.to_element` builds an element from raw
  pieces: every band map of a rotation is a `towers.induced` first return,
  so the band maps' closed form lives only in the table check.
- A word is a string on both system kinds: no module defines a `Word`
  alias or a `render_word`, and the tuple form `symbols` is read only by
  `group.element_hash`, whose pinned digests hash it.
- `src/` ships only what the library and the CLI reach: every function,
  method and class is read from `__all__`, from module level or from
  another reached definition. Code only the tests need lives in
  `tests/oracles.py`.
- No module imports itself or a module of a higher layer, inside a
  function body included: the layers run errors → systems → clopen →
  group → towers → canon → lef → sampling → formats → acceptance → cli.
"""

import ast
import pathlib

import fullgroups

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fullgroups"
ALLOWED_DICT_CACHES: set = set()
KIND_TEST_CAP = 8


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _is_dict(node) -> bool:
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict"


def _module_dict_caches(module, tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id.endswith("_CACHE") and _is_dict(value):
                yield module, target.id


def _kind_tests(tree) -> int:
    count = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, sides, sides[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and any(
                isinstance(side, ast.Attribute) and side.attr == "kind" for side in (left, right)
            ):
                count += 1
    return count


def test_no_module_level_dict_caches():
    found = {key for module, tree in _modules() for key in _module_dict_caches(module, tree)}
    assert found <= ALLOWED_DICT_CACHES, sorted(found - ALLOWED_DICT_CACHES)


def test_kind_tests_stay_within_the_cap():
    counts = {module: _kind_tests(tree) for module, tree in _modules()}
    assert sum(counts.values()) <= KIND_TEST_CAP, {m: n for m, n in counts.items() if n}


# Fields kept although no `src/` code reads them.
UNREAD_FIELDS_ALLOWED: set = set()


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read_in_src():
    """Each dataclass field in `src/` is read somewhere there as an attribute.

    Matching is by name alone: a field is taken as read when any attribute
    load of that name appears in any module, whatever the object. So a field
    whose name another class also uses (an `index` field, say, beside
    `canon.index`) can go unread without this guard noticing.
    """
    trees = [tree for _, tree in _modules()]
    loaded = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = {
        (cls.name, stmt.target.id)
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    unread = {f for f in fields if f[1] not in loaded} - UNREAD_FIELDS_ALLOWED
    assert not unread, sorted(unread)


def _loads(node, owner=None):
    """(owner, name) for each load or import under node: the owner is the
    enclosing definition, qualified by its class (`Class.method`), or None
    at module level."""
    for child in ast.iter_child_nodes(node):
        field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(child))
        # a name, `module.<name>` or an import, but not the assignment
        stored = isinstance(getattr(child, "ctx", None), ast.Store)
        if field and not stored:
            yield owner, getattr(child, field)
        yield from _loads(child, _qualify(child, owner))


def _qualify(node, owner):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name if owner is None else f"{owner}.{node.name}"
    return owner


def _reads(node, name):
    """The owner of each load or import of `name` under node."""
    return (owner for owner, read in _loads(node) if read == name)


def test_the_depth_cap_is_read_in_one_function():
    reads = {(module, owner) for module, tree in _modules() for owner in _reads(tree, "_DEPTH_CAP")}
    assert reads == {("group", "ladder_sizes")}


def test_the_level_cap_is_read_in_one_function():
    reads = {(module, owner) for module, tree in _modules() for owner in _reads(tree, "_LEVEL_CAP")}
    assert reads == {("canon", "search_levels")}


def test_canon_builds_raw_pieces_only_for_the_permutation_form():
    reads = set(_reads(dict(_modules())["canon"], "_build"))
    assert reads == {None, "PermutationForm.to_element"}


def test_a_word_has_one_type():
    defined = {
        (module, node.name if isinstance(node, ast.FunctionDef) else node.id)
        for module, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.FunctionDef) and node.name == "render_word")
        or (isinstance(node, ast.Name) and node.id == "Word" and isinstance(node.ctx, ast.Store))
    }
    assert not defined, sorted(defined)
    reads = {(module, owner) for module, tree in _modules() for owner in _reads(tree, "symbols")}
    assert reads == {("group", "element_hash")}


def _definitions(node, owner=None):
    """The qualified name of each function and class under node."""
    for child in ast.iter_child_nodes(node):
        inner = _qualify(child, owner)
        if inner != owner:
            yield inner
        yield from _definitions(child, inner)


# Definitions kept although nothing in `src/` reaches them; each is
# explained in CHANGES.md.
UNREACHED_ALLOWED = {("formats", "parse_towers"), ("formats", "parse_factorization")}


def test_every_definition_in_src_is_reached():
    """A definition is reached when `__all__` names it, when it is a dunder
    method, or when module-level code or a reached definition other than
    itself reads or imports its name.

    Matching is by name alone, as in `_reads`: a definition whose name a
    reached one reads for another object (a method `order` beside
    `group.order`, say) counts as reached.
    """
    modules = dict(_modules())
    readers: dict = {}
    for module, tree in modules.items():
        for owner, name in _loads(tree):
            readers.setdefault(name, set()).add((module, owner))
    live = {(module, None) for module in modules}

    def reached(module, q):
        name = q.rpartition(".")[2]
        if name in fullgroups.__all__ or (name.startswith("__") and name.endswith("__")):
            return True
        return any(r in live and r != (module, q) for r in readers.get(name, ()))

    unreached = {(module, q) for module, tree in modules.items() for q in _definitions(tree)}
    while found := {d for d in unreached if reached(*d)}:
        live |= found
        unreached -= found
    assert unreached == UNREACHED_ALLOWED, sorted(unreached ^ UNREACHED_ALLOWED)


LAYERS = (
    "errors", "systems", "clopen", "group", "towers", "canon", "lef",
    "sampling", "formats", "acceptance", "cli", "__init__",
)


def test_no_module_imports_a_higher_layer():
    modules = dict(_modules())
    assert set(modules) == set(LAYERS)
    upward = set()
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward |= {(module, t) for t in targets if LAYERS.index(t) >= LAYERS.index(module)}
    assert not upward, sorted(upward)

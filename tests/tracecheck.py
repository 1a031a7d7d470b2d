"""Trace checks the tests run on recorded events: expansions number their
nodes in order, grow the tip of the derivation, and backtracking pops it;
and no expansion under a known ancestor variant reuses a clause the ancestor
has in use.  A traced run builds every node it numbers, so a node number no
``expand`` carries is a node the run took without building it."""


def check_stack_discipline(events) -> list[str]:
    """Verify that expansions number their nodes 0, 1, 2, ... in order and
    only ever grow the tip of the derivation, backtracking only ever pops
    it, and the run ends with no node active.  Returns human-readable
    violations."""
    errors: list[str] = []
    stack: list[int] = []
    next_id = 0
    for i, ev in enumerate(events):
        if ev.kind == "expand":
            node = ev.get("node")
            if node != next_id:
                errors.append(f"event {i}: expand of node {node} but the next node is {next_id}")
            next_id = node + 1
            parent = ev.get("parent")
            if stack:
                if parent != stack[-1]:
                    errors.append(
                        f"event {i}: expand of node {ev.get('node')} under parent"
                        f" {parent} but the active node is {stack[-1]}"
                    )
            elif parent is not None:
                errors.append(f"event {i}: first expand must be a root, got parent {parent}")
            stack.append(node)
        elif ev.kind == "backtrack":
            node = ev.get("node")
            if not stack:
                errors.append(f"event {i}: backtrack of node {node} on an empty stack")
            elif stack[-1] != node:
                errors.append(
                    f"event {i}: backtrack of node {node} but the active node is {stack[-1]}"
                )
                stack.pop()
            else:
                stack.pop()
    if stack:
        errors.append(f"run ended with {len(stack)} nodes still active: {stack}")
    return errors


def check_clause_skip(events) -> list[str]:
    """Verify no expansion under a known ancestor variant reuses a clause at
    or before the ancestor's in-use ordinal."""
    errors: list[str] = []
    for i, ev in enumerate(events):
        if ev.kind != "expand" or ev.get("source") != "clause":
            continue
        anc = ev.get("anc")
        ord_ = ev.get("ord")
        if isinstance(anc, int) and anc > 0 and ord_ is not None and ord_ <= anc:
            errors.append(
                f"event {i}: clause ordinal {ord_} used under ancestor clause {anc}"
            )
    return errors

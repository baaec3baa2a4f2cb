"""The full triplet check that the fast paths are held to.

`kg_schema.field_violations` skips the id check, because a triplet that
`make_triplet` has just built has an id derived from its own fields. The
tests check every triplet, wherever it comes from, with the id included.
"""

from finkgqa.kg_schema import Triplet, field_violations, triplet_id_for


def validate_triplet(t: Triplet) -> list[str]:
    """Return the names of every violated invariant (empty list means valid)."""
    violations = field_violations(t)
    if t.triplet_id != triplet_id_for(t.source_doc, t.subject, t.relation, t.object):
        violations.append("TripletIdMismatch")
    return violations

"""Config plumbing: every SimConfig field must be reachable end to
end, or say why not.

Two obligations per field:

  serialized   the field is referenced by src/report/record.cc. That
               file both writes the run manifest and feeds
               `toJson(config).dump()` into the content-addressed run
               key — an unserialized field means two runs differing
               only in that field hash to the SAME key and silently
               alias in the result store the sweep resumes from. This
               is the worst failure mode the repo has: wrong data
               that looks right.
  settable     the field is referenced somewhere under bench/ or
               examples/ — i.e. some harness can actually set it from
               a flag or sweep axis. A field nothing can set is dead
               weight or, worse, a silently-fixed experimental knob.

Derived or intentionally-internal fields carry
SPECFETCH-ALLOW(config-plumbing) with the reason on the declaration
line.
"""

from ..engine import Finding
from . import Rule

CONFIG_HEADER = "src/core/config.hh"
CONFIG_STRUCT = "SimConfig"
SERIALIZER = "src/report/record.cc"
HARNESS_DIRS = ("bench", "examples")


class ConfigPlumbing(Rule):
    rule_id = "config-plumbing"
    description = ("SimConfig field that is not serialized into the "
                   "run manifest / content-addressed run key, or that "
                   "no harness can set; unserialized fields make "
                   "distinct runs alias in the result store.")

    def run(self, project):
        fields = project.struct_fields(CONFIG_HEADER, CONFIG_STRUCT)
        if not fields:
            return []
        findings = []
        serializer = project.file(SERIALIZER)
        ser_idents = serializer.idents() if serializer else None
        harness_idents = project.reference_idents(*HARNESS_DIRS)
        for name, _type_text, line, _has_init in fields:
            if ser_idents is not None and name not in ser_idents:
                findings.append(Finding(
                    self.rule_id, CONFIG_HEADER, line,
                    f"{CONFIG_STRUCT}::{name} is not serialized in "
                    f"{SERIALIZER} — it is missing from the manifest "
                    f"AND from the content-addressed run key, so runs "
                    f"differing only in {name} alias in the result "
                    f"store"))
            if harness_idents and name not in harness_idents:
                findings.append(Finding(
                    self.rule_id, CONFIG_HEADER, line,
                    f"{CONFIG_STRUCT}::{name} cannot be set from any "
                    f"harness (bench/, examples/) — dead knob or "
                    f"missing CLI plumbing"))
        return findings


RULES = (ConfigPlumbing(),)

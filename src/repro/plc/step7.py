"""The Step 7 engineering application on a Windows host.

Installing Step 7 marks the host as an engineering workstation; the
application's calls all route through the host's API hook table, which is
precisely the surface Stuxnet hooks (§II.B: "Stuxnet will hook specific
APIs used to open Step 7 projects").
"""

from repro.plc.blocks import CodeBlock
from repro.plc.s7otbx import DLL_NAME, S7CommunicationLibrary

STEP7_SOFTWARE_LABEL = "step7"


class Step7Project:
    """One engineering project: a folder of block sources on the host."""

    def __init__(self, name, folder):
        self.name = name
        self.folder = folder
        self.blocks = []

    def __repr__(self):
        return "Step7Project(%r, %d blocks)" % (self.name, len(self.blocks))


class Step7Application:
    """Step 7 installed on one Windows host."""

    def __init__(self, host):
        self.host = host
        self.library = S7CommunicationLibrary()
        self.projects = {}
        host.installed_software.add(STEP7_SOFTWARE_LABEL)
        host.step7 = self
        host.vfs.write(
            host.system_dir + "\\" + DLL_NAME,
            b"genuine s7 communication library",
            origin="siemens",
        )
        self._register_apis()

    def _register_apis(self):
        hooks = self.host.hooks
        hooks.register_api("s7.open_project", self._open_project_impl)
        hooks.register_api("s7.read_block",
                           lambda plc, name: self.library.read_block(plc, name))
        hooks.register_api("s7.write_block",
                           lambda plc, block: self.library.write_block(plc, block))
        hooks.register_api("s7.list_blocks",
                           lambda plc: self.library.list_blocks(plc))
        hooks.register_api("s7.delete_block",
                           lambda plc, name: self.library.delete_block(plc, name))
        hooks.register_api("s7.monitor_frequency",
                           lambda plc: self.library.monitor_frequency(plc))

    # -- project handling -------------------------------------------------------

    def create_project(self, name, folder):
        project = Step7Project(name, folder)
        self.host.vfs.write(folder + "\\%s.s7p" % name,
                            b"step7 project file", origin="engineer")
        self.projects[folder.lower()] = project
        return project

    def _open_project_impl(self, folder):
        project = self.projects.get(folder.lower())
        if project is None:
            raise KeyError("no Step 7 project in %r" % folder)
        self.host.trace("step7-project-opened", target=project.name)
        return project

    def open_project(self, folder):
        """Open a project — goes through the hookable API."""
        return self.host.hooks.call("s7.open_project", folder)

    # -- PLC IO (all hookable) ------------------------------------------------------

    def download_project(self, project, plc):
        """Write every project block to the PLC (engineer action)."""
        self.host.trace("step7-download", target=plc.name,
                        blocks=[b.name for b in project.blocks])
        for block in project.blocks:
            self.host.hooks.call("s7.write_block", plc, block)
        return len(project.blocks)

    def upload_block(self, plc, name):
        return self.host.hooks.call("s7.read_block", plc, name)

    def list_plc_blocks(self, plc):
        return self.host.hooks.call("s7.list_blocks", plc)

    def monitor_frequency(self, plc):
        """The operator's HMI frequency readout."""
        return self.host.hooks.call("s7.monitor_frequency", plc)

    def write_block(self, plc, name, kind="OB", logic=None, origin="engineer"):
        """Convenience: author and download a single block."""
        block = CodeBlock(name, kind, logic=logic, origin=origin)
        return self.host.hooks.call("s7.write_block", plc, block)
